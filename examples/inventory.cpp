// inventory - warehouse stock management, eager (OTP) vs. lazy replication.
//
// Each warehouse is a conflict class holding stock counters for its items.
// Pick orders decrement stock through a guarded stored procedure that never
// sells below zero *given serializable execution*. The same order stream runs
// on two engines over the identical simulated LAN:
//
//   * OTP (the paper's engine): every site processes the orders in the
//     definitive total order - stock arithmetic is exact at all sites.
//   * Lazy replication (the commercial-style comparison of paper Section 1):
//     each site commits locally and ships write-sets afterwards. Concurrent
//     picks of the same item at different sites both pass their local guard,
//     and last-writer-wins reconciliation silently loses one of the
//     decrements - phantom stock, detectable oversell.
//
//   $ ./examples/inventory
#include <cstdio>
#include <memory>

#include "baseline/lazy_replica.h"
#include "core/cluster.h"
#include "util/rng.h"

using namespace otpdb;

namespace {

constexpr std::size_t kWarehouses = 4;
constexpr std::uint64_t kItemsPerWarehouse = 8;
constexpr std::int64_t kInitialStock = 500;
constexpr int kOrders = 1200;

struct RunResult {
  std::uint64_t committed = 0;
  std::uint64_t lost_update_conflicts = 0;
  std::int64_t stock_drift = 0;  // |actual total - expected total| at site 0
  double mean_latency_ms = 0;
  bool oversold = false;
};

RunResult run(const ReplicaFactory& factory) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = kWarehouses;
  config.objects_per_class = kItemsPerWarehouse + 1;  // + per-warehouse sold counter
  config.seed = 31337;
  auto cluster = factory ? std::make_unique<Cluster>(config, factory)
                         : std::make_unique<Cluster>(config);
  const PartitionCatalog& catalog = cluster->catalog();
  const ObjectId sold_slot = kItemsPerWarehouse;  // last object of each class

  // args.ints = [item#, quantity]: guarded pick - decrements stock and bumps
  // the warehouse sold-counter only if enough stock is (locally) visible.
  const ProcId pick = cluster->procedures().add("pick", [&catalog](TxnContext& ctx) {
    const ObjectId item = catalog.object(ctx.conflict_class(),
                                         static_cast<std::uint64_t>(ctx.args().ints[0]));
    const ObjectId sold = catalog.object(ctx.conflict_class(), kItemsPerWarehouse);
    const std::int64_t quantity = ctx.args().ints[1];
    const std::int64_t stock = ctx.read_int(item);
    if (stock >= quantity) {
      ctx.write(item, stock - quantity);
      ctx.write(sold, ctx.read_int(sold) + quantity);
    }
  });

  for (ClassId w = 0; w < kWarehouses; ++w) {
    for (std::uint64_t i = 0; i < kItemsPerWarehouse; ++i) {
      cluster->load_everywhere(catalog.object(w, i), Value{kInitialStock});
    }
    cluster->load_everywhere(catalog.object(w, sold_slot), Value{std::int64_t{0}});
  }

  Rng rng(5);
  for (int i = 0; i < kOrders; ++i) {
    const SimTime at = rng.uniform_int(0, kSecond);
    const SiteId site = static_cast<SiteId>(i % 4);
    const ClassId warehouse = static_cast<ClassId>(
        rng.uniform_int(0, static_cast<std::int64_t>(kWarehouses) - 1));
    TxnArgs args;
    args.ints = {rng.uniform_int(0, static_cast<std::int64_t>(kItemsPerWarehouse) - 1),
                 rng.uniform_int(1, 5)};
    const SimTime cost = kMillisecond + rng.uniform_int(0, kMillisecond);
    cluster->sim().schedule_at(at, [cluster = cluster.get(), pick, site, warehouse, args,
                                    cost] {
      cluster->replica(site).submit_update(pick, warehouse, args, cost);
    });
  }

  cluster->run_for(1200 * kMillisecond);
  cluster->quiesce();
  cluster->run_for(2 * kSecond);  // drain lazy propagation

  RunResult result;
  OnlineStats latency;
  for (SiteId s = 0; s < 4; ++s) {
    const ReplicaMetrics& m = cluster->replica(s).metrics();
    result.committed += m.committed;
    latency.merge(m.commit_latency_ns);
    if (auto* lazy = dynamic_cast<LazyReplica*>(&cluster->replica(s))) {
      result.lost_update_conflicts += lazy->conflicts_detected();
    }
  }
  result.mean_latency_ms = latency.mean() / 1e6;

  // Conservation audit at site 0: for every warehouse,
  //   remaining stock + sold counter == initial stock   (exactly, if 1SR).
  std::int64_t expected = 0, actual = 0;
  for (ClassId w = 0; w < kWarehouses; ++w) {
    for (std::uint64_t i = 0; i < kItemsPerWarehouse; ++i) {
      const std::int64_t stock = as_int(*cluster->store(0).read_latest(catalog.object(w, i)));
      if (stock < 0) result.oversold = true;
      actual += stock;
      expected += kInitialStock;
    }
    actual += as_int(*cluster->store(0).read_latest(catalog.object(w, sold_slot)));
  }
  result.stock_drift = actual - expected;
  return result;
}

void report(const char* label, const RunResult& r) {
  std::printf("%s\n", label);
  std::printf("  local commits            : %llu\n",
              static_cast<unsigned long long>(r.committed));
  std::printf("  mean commit latency      : %.2f ms\n", r.mean_latency_ms);
  std::printf("  lost-update conflicts    : %llu\n",
              static_cast<unsigned long long>(r.lost_update_conflicts));
  std::printf("  stock conservation drift : %lld units %s\n",
              static_cast<long long>(r.stock_drift),
              r.stock_drift == 0 ? "(exact)" : "(UNITS VANISHED OR APPEARED!)");
  std::printf("  oversell detected        : %s\n\n", r.oversold ? "YES" : "no");
}

}  // namespace

int main() {
  std::printf("otpdb inventory example: %zu warehouses, %d pick orders, 4 sites\n\n",
              kWarehouses, kOrders);
  const RunResult otp = run(nullptr);
  report("[OTP - optimistic transaction processing over atomic broadcast]", otp);
  report("[lazy replication - local commit, propagate afterwards]", run([](const ReplicaDeps& d) {
           return std::make_unique<LazyReplica>(d.sim, d.net, d.storage, d.catalog, d.registry,
                                                d.site);
         }));
  std::printf("OTP pays its latency with total-order coordination overlapped behind\n"
              "execution; lazy replication is slightly faster locally but loses updates\n"
              "under contention - the drift line shows stock that was picked twice or\n"
              "counted twice. That is the consistency/performance tradeoff the paper's\n"
              "introduction describes.\n");
  // Only OTP's audit must hold: the lazy run is the counterexample.
  return otp.stock_drift == 0 && !otp.oversold ? 0 : 1;
}
