#include "workload/tpcc_lite.h"

#include <sstream>
#include <utility>

#include "util/assert.h"

namespace otpdb::tpcc {

Procedures register_procedures(ProcedureRegistry& registry, const PartitionCatalog& catalog,
                               const Layout& layout) {
  OTPDB_CHECK_MSG(catalog.objects_per_class() == layout.objects_per_warehouse(),
                  "catalog partition size must match the TPC-C layout");
  Procedures procs;

  // NewOrder: place an order of several (item, qty) lines in one warehouse.
  // Refuses lines that would oversell (deterministically, so every site makes
  // the same call). The order total is added to the customer's balance (owed).
  procs.new_order = registry.add("tpcc_new_order", [&catalog, layout](TxnContext& ctx) {
    const auto& a = ctx.args().ints;
    OTPDB_CHECK_MSG(a.size() >= 4 && a.size() % 2 == 0,
                    "new_order args: [district, customer, item, qty, ...]");
    const ClassId w = ctx.conflict_class();
    const ObjectId district =
        catalog.object(w, layout.district_offset(static_cast<std::uint64_t>(a[0])));
    const ObjectId customer =
        catalog.object(w, layout.customer_offset(static_cast<std::uint64_t>(a[1])));
    ctx.write(district, ctx.read_int(district) + 1);  // dense order ids
    std::int64_t total = 0;
    for (std::size_t i = 2; i + 1 < a.size(); i += 2) {
      const ObjectId stock =
          catalog.object(w, layout.stock_offset(static_cast<std::uint64_t>(a[i])));
      const std::int64_t qty = a[i + 1];
      const std::int64_t level = ctx.read_int(stock);
      if (level >= qty) {
        ctx.write(stock, level - qty);
        total += qty * kItemPrice;
      }
    }
    ctx.write(customer, ctx.read_int(customer) + total);
  });

  // Payment: customer settles part of the balance; warehouse year-to-date
  // receipts grow by the same amount (money conservation).
  procs.payment = registry.add("tpcc_payment", [&catalog, layout](TxnContext& ctx) {
    const auto& a = ctx.args().ints;
    OTPDB_CHECK_MSG(a.size() == 2, "payment args: [customer, amount]");
    const ClassId w = ctx.conflict_class();
    const ObjectId customer =
        catalog.object(w, layout.customer_offset(static_cast<std::uint64_t>(a[0])));
    const ObjectId ytd = catalog.object(w, layout.ytd_offset());
    ctx.write(customer, ctx.read_int(customer) - a[1]);
    ctx.write(ytd, ctx.read_int(ytd) + a[1]);
  });

  // Delivery: advances the warehouse's delivered-orders counter.
  procs.delivery = registry.add("tpcc_delivery", [&catalog, layout](TxnContext& ctx) {
    const ObjectId delivered =
        catalog.object(ctx.conflict_class(), layout.delivered_offset());
    ctx.write(delivered, ctx.read_int(delivered) + 1);
  });

  // Remote NewOrder: the order is placed at the home warehouse (district
  // order id, customer billing) but every item line is supplied from a remote
  // warehouse's stock - a cross-partition commit over {home, supply}. Money
  // conservation becomes global: revenue for stock sold at `supply` lands on
  // a `home` customer.
  procs.new_order_remote =
      registry.add("tpcc_new_order_remote", [&catalog, layout](TxnContext& ctx) {
        const auto& a = ctx.args().ints;
        OTPDB_CHECK_MSG(a.size() >= 6 && a.size() % 2 == 0,
                        "new_order_remote args: [home_w, supply_w, district, customer, "
                        "item, qty, ...]");
        const auto home = static_cast<ClassId>(a[0]);
        const auto supply = static_cast<ClassId>(a[1]);
        const ObjectId district =
            catalog.object(home, layout.district_offset(static_cast<std::uint64_t>(a[2])));
        const ObjectId customer =
            catalog.object(home, layout.customer_offset(static_cast<std::uint64_t>(a[3])));
        ctx.write(district, ctx.read_int(district) + 1);  // dense order ids
        std::int64_t total = 0;
        for (std::size_t i = 4; i + 1 < a.size(); i += 2) {
          const ObjectId stock =
              catalog.object(supply, layout.stock_offset(static_cast<std::uint64_t>(a[i])));
          const std::int64_t qty = a[i + 1];
          const std::int64_t level = ctx.read_int(stock);
          if (level >= qty) {
            ctx.write(stock, level - qty);
            total += qty * kItemPrice;
          }
        }
        ctx.write(customer, ctx.read_int(customer) + total);
      });

  // Remote Payment: a customer of a *remote* warehouse settles at this (home)
  // warehouse - the home warehouse books the receipt (YTD), the customer's
  // balance lives at their own warehouse.
  procs.payment_remote =
      registry.add("tpcc_payment_remote", [&catalog, layout](TxnContext& ctx) {
        const auto& a = ctx.args().ints;
        OTPDB_CHECK_MSG(a.size() == 4,
                        "payment_remote args: [home_w, customer_w, customer, amount]");
        const auto home = static_cast<ClassId>(a[0]);
        const auto customer_w = static_cast<ClassId>(a[1]);
        const ObjectId customer =
            catalog.object(customer_w, layout.customer_offset(static_cast<std::uint64_t>(a[2])));
        const ObjectId ytd = catalog.object(home, layout.ytd_offset());
        ctx.write(customer, ctx.read_int(customer) - a[3]);
        ctx.write(ytd, ctx.read_int(ytd) + a[3]);
      });
  return procs;
}

void load_initial_state(Cluster& cluster, const Layout& layout) {
  const auto& catalog = cluster.catalog();
  for (ClassId w = 0; w < catalog.class_count(); ++w) {
    for (std::uint64_t i = 0; i < layout.n_items; ++i) {
      cluster.load_everywhere(catalog.object(w, layout.stock_offset(i)),
                              Value{kInitialStock});
    }
  }
}

TpccDriver::TpccDriver(Cluster& cluster, Layout layout, MixConfig config, std::uint64_t seed)
    : cluster_(cluster),
      layout_(layout),
      config_(config),
      client_(cluster, site_rngs_, config.max_retries) {
  Rng master(seed);
  for (std::size_t s = 0; s < cluster.site_count(); ++s) site_rngs_.push_back(master.split());
}

void TpccDriver::start() {
  OTPDB_CHECK(!started_);
  started_ = true;
  procs_ = register_procedures(cluster_.procedures(), cluster_.catalog(), layout_);
  load_initial_state(cluster_, layout_);
  const SimTime horizon = cluster_.sim().now() + config_.duration;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) schedule_next(s, horizon);
}

MixStats TpccDriver::stats() const {
  MixStats out = stats_;
  out.retries = client_.counters().retries;
  out.gave_up = client_.counters().gave_up;
  out.expired_presubmit = client_.counters().expired_presubmit;
  return out;
}

void TpccDriver::schedule_next(SiteId site, SimTime horizon) {
  // On the site's own shard, timed by the site's own rng stream.
  Simulator& sim = cluster_.site_sim(site);
  const double gap_ns = static_cast<double>(kSecond) / config_.txn_per_second_per_site;
  const SimTime at = sim.now() +
                     static_cast<SimTime>(site_rngs_[site].exponential(gap_ns));
  if (at > horizon) return;
  sim.schedule_at(at, [this, site, horizon] {
    submit_one(site);
    schedule_next(site, horizon);
  });
}

void TpccDriver::submit_one(SiteId site) {
  Rng& rng = site_rngs_[site];
  const auto& catalog = cluster_.catalog();
  const auto warehouse = static_cast<ClassId>(
      rng.zipf(static_cast<std::uint64_t>(catalog.class_count()),
               config_.warehouse_skew_theta));
  const SimTime exec =
      static_cast<SimTime>(rng.exponential(static_cast<double>(config_.mean_exec_time)));
  const double dice = rng.next_double();
  const double no_w = config_.new_order_weight;
  const double pay_w = no_w + config_.payment_weight;
  const double del_w = pay_w + config_.delivery_weight;

  // Remote (cross-warehouse) decision: the short-circuit keeps the rng stream
  // identical to the all-local mix whenever remote_txn_fraction is 0.
  const bool remote = config_.remote_txn_fraction > 0.0 && catalog.class_count() > 1 &&
                      rng.bernoulli(config_.remote_txn_fraction);
  // Uniform among the other warehouses (home keeps its Zipf affinity).
  const auto pick_remote_warehouse = [&]() {
    const auto r = static_cast<ClassId>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.class_count()) - 2));
    return r >= warehouse ? static_cast<ClassId>(r + 1) : r;
  };

  // Every update goes through the retrying client (deadline tagging +
  // retry); the arguments are drawn exactly once, here, so retried attempts
  // resubmit the same transaction.
  PendingUpdate pending;
  pending.exec_duration = exec;
  if (config_.deadline_budget != 0) {
    pending.deadline = cluster_.site_sim(site).now() + config_.deadline_budget;
  }

  if (dice < no_w) {
    TxnArgs args;
    const ClassId supply = remote ? pick_remote_warehouse() : warehouse;
    if (remote) {
      args.ints.push_back(static_cast<std::int64_t>(warehouse));
      args.ints.push_back(static_cast<std::int64_t>(supply));
    }
    args.ints.push_back(rng.uniform_int(0, static_cast<std::int64_t>(layout_.n_districts) - 1));
    args.ints.push_back(rng.uniform_int(0, static_cast<std::int64_t>(layout_.n_customers) - 1));
    for (std::size_t i = 0; i < config_.items_per_order; ++i) {
      args.ints.push_back(rng.uniform_int(0, static_cast<std::int64_t>(layout_.n_items) - 1));
      args.ints.push_back(rng.uniform_int(1, 5));  // quantity
    }
    ++stats_.new_orders;
    pending.args = std::move(args);
    if (remote) {
      ++stats_.remote_new_orders;
      pending.cross = true;
      pending.proc = procs_.new_order_remote;
      pending.classes = {warehouse, supply};
    } else {
      pending.proc = procs_.new_order;
      pending.klass = warehouse;
    }
    client_.submit(site, std::move(pending));
  } else if (dice < pay_w) {
    TxnArgs args;
    const std::int64_t amount = rng.uniform_int(1, 100);
    const std::int64_t customer =
        rng.uniform_int(0, static_cast<std::int64_t>(layout_.n_customers) - 1);
    ++stats_.payments;
    stats_.payment_volume += amount;
    if (remote) {
      const ClassId customer_w = pick_remote_warehouse();
      args.ints = {static_cast<std::int64_t>(warehouse),
                   static_cast<std::int64_t>(customer_w), customer, amount};
      ++stats_.remote_payments;
      pending.cross = true;
      pending.proc = procs_.payment_remote;
      pending.classes = {warehouse, customer_w};
    } else {
      args.ints = {customer, amount};
      pending.proc = procs_.payment;
      pending.klass = warehouse;
    }
    pending.args = std::move(args);
    client_.submit(site, std::move(pending));
  } else if (dice < del_w) {
    TxnArgs args;
    args.ints = {rng.uniform_int(0, static_cast<std::int64_t>(layout_.n_districts) - 1)};
    ++stats_.deliveries;
    pending.proc = procs_.delivery;
    pending.klass = warehouse;
    pending.args = std::move(args);
    client_.submit(site, std::move(pending));
  } else {
    // StockLevel: snapshot query counting low-stock items of one warehouse.
    const Layout layout = layout_;
    const SimTime query_exec = static_cast<SimTime>(
        rng.exponential(static_cast<double>(config_.mean_query_exec_time)));
    ++stats_.stock_level_queries;
    cluster_.replica(site).submit_query(
        [&catalog, layout, warehouse](QueryContext& ctx) {
          int low = 0;
          for (std::uint64_t i = 0; i < layout.n_items; ++i) {
            if (ctx.read_int(catalog.object(warehouse, layout.stock_offset(i))) <
                kStockLevelThreshold) {
              ++low;
            }
          }
          (void)low;
        },
        query_exec, nullptr);
  }
}

std::vector<std::string> TpccDriver::audit(SiteId site) {
  std::vector<std::string> violations;
  const auto& catalog = cluster_.catalog();
  const VersionedStore& store = cluster_.store(site);
  // Remote NewOrder bills a home customer for stock sold at a supply
  // warehouse and remote Payment moves a receipt across warehouses, so with
  // remote transactions money conservation only holds summed over all
  // warehouses; an all-local mix must balance per warehouse (the stricter
  // original audit).
  const bool per_warehouse_money = stats_.remote_new_orders + stats_.remote_payments == 0;
  std::int64_t global_sold = 0, global_balances = 0, global_ytd = 0;
  for (ClassId w = 0; w < catalog.class_count(); ++w) {
    auto value_of = [&](std::uint64_t offset) {
      return as_int(
          store.read_latest(catalog.object(w, offset)).value_or(Value{std::int64_t{0}}));
    };
    // Money/stock conservation: every unit sold was billed exactly once, and
    // every billed unit is either still owed (balance) or received (YTD).
    std::int64_t sold = 0;
    for (std::uint64_t i = 0; i < layout_.n_items; ++i) {
      sold += kInitialStock - value_of(layout_.stock_offset(i));
    }
    std::int64_t balances = 0;
    for (std::uint64_t c = 0; c < layout_.n_customers; ++c) {
      balances += value_of(layout_.customer_offset(c));
    }
    const std::int64_t ytd = value_of(layout_.ytd_offset());
    global_sold += sold;
    global_balances += balances;
    global_ytd += ytd;
    if (per_warehouse_money && balances + ytd != sold * kItemPrice) {
      std::ostringstream out;
      out << "site " << site << " warehouse " << w << ": balances(" << balances << ") + ytd("
          << ytd << ") != revenue(" << sold * kItemPrice << ")";
      violations.push_back(out.str());
    }
    if (sold < 0) {
      violations.push_back("site " + std::to_string(site) + " warehouse " +
                           std::to_string(w) + ": negative sales (stock grew?)");
    }
    for (std::uint64_t i = 0; i < layout_.n_items; ++i) {
      if (value_of(layout_.stock_offset(i)) < 0) {
        violations.push_back("site " + std::to_string(site) + " warehouse " +
                             std::to_string(w) + ": oversold item " + std::to_string(i));
      }
    }
  }
  if (global_balances + global_ytd != global_sold * kItemPrice) {
    std::ostringstream out;
    out << "site " << site << ": global balances(" << global_balances << ") + ytd("
        << global_ytd << ") != revenue(" << global_sold * kItemPrice << ")";
    violations.push_back(out.str());
  }
  return violations;
}

}  // namespace otpdb::tpcc
