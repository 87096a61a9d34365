// banking - a replicated retail bank on otpdb.
//
// Branches are conflict classes (paper Section 2.3): accounts of one branch
// form one partition, so transactions within a branch serialize through its
// class queue while different branches proceed in parallel. Deposits,
// withdrawals and intra-branch transfers are stored procedures; the audit is
// a multi-branch snapshot query (Section 5) checking conservation of money -
// an invariant that only holds if the system is 1-copy-serializable.
//
// The same workload runs twice: over a calm LAN (spontaneous order mostly
// holds -> almost no rescheduling) and over a stormy one (frequent tentative/
// definitive mismatches -> the correctness-check module visibly aborts and
// re-executes, yet the invariant still holds).
//
//   $ ./examples/banking
#include <cstdio>

#include "core/cluster.h"
#include "util/rng.h"

using namespace otpdb;

namespace {

constexpr std::size_t kBranches = 8;
constexpr std::uint64_t kAccountsPerBranch = 16;
constexpr std::int64_t kOpeningBalance = 1000;
constexpr std::int64_t kTotalMoney =
    static_cast<std::int64_t>(kBranches * kAccountsPerBranch) * kOpeningBalance;

struct Procs {
  ProcId deposit;
  ProcId withdraw;
  ProcId transfer;
};

Procs declare_procedures(Cluster& cluster) {
  const PartitionCatalog& catalog = cluster.catalog();
  Procs procs;
  // args.ints = [account#, amount]
  procs.deposit = cluster.procedures().add("deposit", [&catalog](TxnContext& ctx) {
    const ObjectId acc = catalog.object(ctx.conflict_class(),
                                        static_cast<std::uint64_t>(ctx.args().ints[0]));
    ctx.write(acc, ctx.read_int(acc) + ctx.args().ints[1]);
  });
  // args.ints = [account#, amount]; refuses overdrafts (deterministically!).
  procs.withdraw = cluster.procedures().add("withdraw", [&catalog](TxnContext& ctx) {
    const ObjectId acc = catalog.object(ctx.conflict_class(),
                                        static_cast<std::uint64_t>(ctx.args().ints[0]));
    const std::int64_t balance = ctx.read_int(acc);
    if (balance >= ctx.args().ints[1]) ctx.write(acc, balance - ctx.args().ints[1]);
  });
  // args.ints = [from#, to#, amount]; same branch only (one conflict class).
  procs.transfer = cluster.procedures().add("transfer", [&catalog](TxnContext& ctx) {
    const ObjectId from = catalog.object(ctx.conflict_class(),
                                         static_cast<std::uint64_t>(ctx.args().ints[0]));
    const ObjectId to = catalog.object(ctx.conflict_class(),
                                       static_cast<std::uint64_t>(ctx.args().ints[1]));
    const std::int64_t balance = ctx.read_int(from);
    if (balance >= ctx.args().ints[2]) {
      ctx.write(from, balance - ctx.args().ints[2]);
      ctx.write(to, ctx.read_int(to) + ctx.args().ints[2]);
    }
  });
  return procs;
}

void open_accounts(Cluster& cluster) {
  for (ClassId b = 0; b < kBranches; ++b) {
    for (std::uint64_t a = 0; a < kAccountsPerBranch; ++a) {
      cluster.load_everywhere(cluster.catalog().object(b, a), Value{kOpeningBalance});
    }
  }
}

/// Runs the bank on `net`; returns whether every audit and the final total
/// conserved money.
bool run_bank(const char* label, const NetConfig& net) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = kBranches;
  config.objects_per_class = kAccountsPerBranch;
  config.seed = 2026;
  config.net = net;
  Cluster cluster(config);
  const Procs procs = declare_procedures(cluster);
  open_accounts(cluster);

  // Client load: 2000 transfers submitted round-robin at the four sites over
  // one simulated second. Transfers conserve total money, so the audit query
  // has an exact invariant to check at every snapshot. (The deposit and
  // withdraw procedures above round out the API; a production bank would mix
  // them in and audit against the running deposit/withdrawal ledger instead.)
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const SimTime at = rng.uniform_int(0, kSecond);
    cluster.sim().schedule_at(at, [&cluster, &procs, &rng, i] {
      const SiteId site = static_cast<SiteId>(static_cast<std::size_t>(i) % cluster.site_count());
      const ClassId branch = static_cast<ClassId>(
          rng.uniform_int(0, static_cast<std::int64_t>(kBranches) - 1));
      const std::int64_t a1 =
          rng.uniform_int(0, static_cast<std::int64_t>(kAccountsPerBranch) - 1);
      const std::int64_t a2 =
          rng.uniform_int(0, static_cast<std::int64_t>(kAccountsPerBranch) - 1);
      const std::int64_t amount = rng.uniform_int(1, 50);
      const SimTime cost = 500 * kMicrosecond + rng.uniform_int(0, 2 * kMillisecond);
      TxnArgs args;
      args.ints = {a1, a2, amount};
      cluster.replica(site).submit_update(procs.transfer, branch, args, cost);
    });
  }

  // Periodic audit at site 1: a snapshot query across ALL branches. Under
  // 1-copy-serializability the audited total is conserved *exactly* even
  // while thousands of transfers are in flight.
  int audits = 0, clean_audits = 0;
  for (int k = 1; k <= 10; ++k) {
    cluster.sim().schedule_at(k * 100 * kMillisecond, [&cluster, &audits, &clean_audits] {
      cluster.replica(1).submit_query(
          [&cluster, &audits, &clean_audits](QueryContext& ctx) {
            std::int64_t total = 0;
            for (ClassId b = 0; b < kBranches; ++b) {
              for (std::uint64_t a = 0; a < kAccountsPerBranch; ++a) {
                total += ctx.read_int(cluster.catalog().object(b, a));
              }
            }
            ++audits;
            if (total == kTotalMoney) ++clean_audits;
          },
          2 * kMillisecond, nullptr);
    });
  }

  cluster.run_for(1100 * kMillisecond);
  cluster.quiesce();

  std::uint64_t committed = 0, aborts = 0, reexec = 0;
  OnlineStats latency;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    committed += m.committed;
    aborts += m.aborts;
    reexec += m.reexecutions;
    latency.merge(m.commit_latency_ns);
  }
  // Deterministic procedures => every site holds the same balances; audit the
  // final state directly too.
  std::int64_t final_total = 0;
  for (ClassId b = 0; b < kBranches; ++b) {
    for (std::uint64_t a = 0; a < kAccountsPerBranch; ++a) {
      final_total += as_int(*cluster.store(0).read_latest(cluster.catalog().object(b, a)));
    }
  }

  std::printf("%s\n", label);
  std::printf("  commits (all sites)      : %llu\n", static_cast<unsigned long long>(committed));
  std::printf("  optimistic aborts/redos  : %llu / %llu\n",
              static_cast<unsigned long long>(aborts), static_cast<unsigned long long>(reexec));
  std::printf("  mean commit latency      : %.2f ms\n", latency.mean() / 1e6);
  std::printf("  audits conserved money   : %d / %d\n", clean_audits, audits);
  std::printf("  final total (site 0)     : %lld (expected %lld)\n\n",
              static_cast<long long>(final_total), static_cast<long long>(kTotalMoney));
  return audits > 0 && clean_audits == audits && final_total == kTotalMoney;
}

}  // namespace

int main() {
  std::printf("otpdb banking example: %zu branches x %llu accounts, 2000 transfers, 4 sites\n\n",
              kBranches, static_cast<unsigned long long>(kAccountsPerBranch));
  NetConfig calm;  // calibrated Figure-1 LAN: spontaneous order mostly holds
  const bool calm_ok = run_bank("[calm LAN]", calm);

  NetConfig stormy;
  stormy.hiccup_prob = 0.30;
  stormy.hiccup_mean = 3 * kMillisecond;
  const bool stormy_ok =
      run_bank("[stormy LAN - frequent tentative/definitive mismatches]", stormy);

  std::printf("Note: the stormy run aborts and re-executes wrongly-guessed transactions\n"
              "(correctness-check module, paper Fig. 6) yet money is conserved in every\n"
              "audit - mismatches cost work, never correctness.\n");
  return calm_ok && stormy_ok ? 0 : 1;
}
