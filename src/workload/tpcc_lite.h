// TPC-C-lite: a warehouse/order-entry workload in the paper's execution model.
//
// TPC-C's warehouse-centric partitioning maps directly onto the paper's
// conflict classes (Section 2.3): each warehouse is one conflict class owning
// its stock, districts and customers; the home-warehouse update transactions
// (NewOrder, Payment, Delivery) each touch a single warehouse, while the
// read-only StockLevel and multi-warehouse analytics queries run on snapshots
// (Section 5). Like real TPC-C (~10% remote NewOrder, ~15% remote Payment),
// a remote_txn_fraction of NewOrders/Payments touches a second warehouse -
// submitted as multi-class transactions over {home, remote} (cross-partition
// commits; OTP/conservative engines only). The procedures maintain audit
// invariants (money and stock conservation, dense order ids) that hold
// exactly if and only if execution is 1-copy-serializable - per warehouse for
// all-local mixes, globally once remote transactions move money across
// warehouses - and integration tests and the example assert them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace otpdb::tpcc {

/// Object layout inside one warehouse's conflict-class partition.
struct Layout {
  std::uint64_t n_items = 32;      ///< stock slots per warehouse
  std::uint64_t n_districts = 4;   ///< district next-order-id slots
  std::uint64_t n_customers = 16;  ///< customer balance slots

  std::uint64_t objects_per_warehouse() const {
    return n_items + n_districts + n_customers + 2;  // + YTD + delivered counter
  }
  // Offsets within the class partition.
  std::uint64_t stock_offset(std::uint64_t item) const { return item; }
  std::uint64_t district_offset(std::uint64_t district) const { return n_items + district; }
  std::uint64_t customer_offset(std::uint64_t customer) const {
    return n_items + n_districts + customer;
  }
  std::uint64_t ytd_offset() const { return n_items + n_districts + n_customers; }
  std::uint64_t delivered_offset() const { return ytd_offset() + 1; }
};

/// Registered procedure ids.
struct Procedures {
  ProcId new_order = 0;  ///< args: [district, customer, item1, qty1, item2, qty2, ...]
  ProcId payment = 0;    ///< args: [customer, amount]
  ProcId delivery = 0;   ///< args: [district]
  /// Remote (cross-warehouse) variants, submitted as multi-class transactions
  /// covering {home, remote} - TPC-C's ~10% remote NewOrder / ~15% remote
  /// Payment. Warehouses travel in the arguments because a multi-class
  /// context has no single conflict_class() to resolve offsets against.
  ProcId new_order_remote = 0;  ///< args: [home_w, supply_w, district, customer, item, qty, ...]
  ProcId payment_remote = 0;    ///< args: [home_w, customer_w, customer, amount]
};

constexpr std::int64_t kInitialStock = 1000;
constexpr std::int64_t kStockLevelThreshold = 985;  ///< StockLevel "low stock" cutoff
constexpr std::int64_t kItemPrice = 5;

/// Registers the three update procedures against the given layout. The
/// catalog's objects_per_class must equal layout.objects_per_warehouse().
Procedures register_procedures(ProcedureRegistry& registry, const PartitionCatalog& catalog,
                               const Layout& layout);

/// Loads initial stock (and zeroed counters) at every site of the cluster.
void load_initial_state(Cluster& cluster, const Layout& layout);

struct MixConfig {
  double new_order_weight = 0.45;
  double payment_weight = 0.43;
  double delivery_weight = 0.04;
  double stock_level_weight = 0.08;  ///< read-only snapshot query
  std::size_t items_per_order = 4;

  double txn_per_second_per_site = 120.0;
  SimTime mean_exec_time = 3 * kMillisecond;
  SimTime mean_query_exec_time = 6 * kMillisecond;
  SimTime duration = 2 * kSecond;
  double warehouse_skew_theta = 0.0;  ///< Zipf over warehouses (home-warehouse affinity)
  /// Fraction of NewOrder/Payment transactions that touch a second (remote)
  /// warehouse - a cross-partition commit over {home, remote}. Requires a
  /// multi-class-capable engine (OTP, conservative) and >= 2 warehouses.
  /// The home warehouse keeps its Zipf affinity; the remote one is uniform
  /// among the others.
  double remote_txn_fraction = 0.0;

  // --- Overload plane (all off by default: identical rng streams and
  // submissions to the pre-overload driver) ---

  /// Deadline budget per update (0 = none): absolute deadline = first-attempt
  /// time + budget; retries keep the original deadline.
  SimTime deadline_budget = 0;
  /// Client retries after a shed/backpressure refusal (0 = fire-and-forget),
  /// with RetryingClient's deterministic backoff.
  std::size_t max_retries = 0;
};

/// Per-transaction-type counters reported by the driver.
struct MixStats {
  std::uint64_t new_orders = 0;
  std::uint64_t payments = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t stock_level_queries = 0;
  std::uint64_t remote_new_orders = 0;  ///< cross-warehouse NewOrders (subset of new_orders)
  std::uint64_t remote_payments = 0;    ///< cross-warehouse Payments (subset of payments)
  std::int64_t payment_volume = 0;  ///< total amount across submitted payments
  std::uint64_t retries = 0;            ///< re-submissions after shed/backpressure
  std::uint64_t gave_up = 0;            ///< updates abandoned after max_retries
  std::uint64_t expired_presubmit = 0;  ///< deadline passed before admission

  /// Merge (for per-site -> cluster aggregation). Extend together with the
  /// fields above, or merged stats silently drop the new counter.
  MixStats& operator+=(const MixStats& o) {
    new_orders += o.new_orders;
    payments += o.payments;
    deliveries += o.deliveries;
    stock_level_queries += o.stock_level_queries;
    remote_new_orders += o.remote_new_orders;
    remote_payments += o.remote_payments;
    payment_volume += o.payment_volume;
    retries += o.retries;
    gave_up += o.gave_up;
    expired_presubmit += o.expired_presubmit;
    return *this;
  }
};

/// Drives the TPC-C-lite mix against a cluster (any engine).
class TpccDriver {
 public:
  TpccDriver(Cluster& cluster, Layout layout, MixConfig config, std::uint64_t seed);

  /// Registers procedures, loads initial state, schedules the client
  /// streams - each site's stream on its own shard (Cluster::site_sim), so
  /// generation parallelizes with the sharded engine.
  void start();

  /// Merged counters across the per-site client streams.
  MixStats stats() const;
  const Procedures& procedures() const { return procs_; }
  const Layout& layout() const { return layout_; }

  /// Audit: checks the conservation invariants on `site`'s committed state.
  /// Returns human-readable violations (empty = consistent).
  std::vector<std::string> audit(SiteId site);

 private:
  void schedule_next(SiteId site, SimTime horizon);
  void submit_one(SiteId site);

  Cluster& cluster_;
  Layout layout_;
  MixConfig config_;
  std::vector<Rng> site_rngs_;
  // Audit invariants hold across retries because a refused attempt writes
  // nothing - the audit only counts *admitted* work.
  RetryingClient client_;  // after site_rngs_, which it draws jitter from
  Procedures procs_;
  std::vector<MixStats> site_stats_;  // shard-confined, merged by stats()
  bool started_ = false;
};

}  // namespace otpdb::tpcc
