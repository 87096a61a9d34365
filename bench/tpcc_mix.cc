// TPC-C-lite end-to-end bench: the order-entry mix (NewOrder/Payment/
// Delivery/StockLevel) on each engine over the calibrated LAN. This is the
// "realistic application" composite of all the paper's mechanisms: stored
// procedures, conflict-class partitioning by warehouse, optimistic execution
// against the tentative order, snapshot queries, and the consistency audit.
//
// Counters: goodput (txn/s), commit latency (ms), abort %, query latency
// (ms), audit_clean (1 = money/stock conserved at every site).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "db/durable_store.h"
#include "workload/tpcc_lite.h"

namespace otpdb::bench {
namespace {

enum class Engine : std::int64_t { otp = 0, conservative = 1 };

void BM_TpccMix(benchmark::State& state) {
  const auto engine = static_cast<Engine>(state.range(0));
  const auto warehouses = static_cast<std::size_t>(state.range(1));
  ClusterTotals t;
  double duration_s = 0;
  bool audit_clean = true;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = warehouses;
    tpcc::Layout layout;
    config.objects_per_class = layout.objects_per_warehouse();
    config.seed = 1999;
    config.net = lan();
    auto cluster = engine == Engine::conservative
                       ? std::make_unique<Cluster>(config, conservative_factory())
                       : std::make_unique<Cluster>(config);
    tpcc::MixConfig mix;
    mix.txn_per_second_per_site = 120;
    mix.duration = 3 * kSecond;
    mix.warehouse_skew_theta = 0.6;
    tpcc::TpccDriver driver(*cluster, layout, mix, 2024);
    driver.start();
    cluster->run_for(mix.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      audit_clean &= driver.audit(s).empty();
      queries += cluster->replica(s).metrics().queries_done;
    }
  }
  state.SetLabel(engine == Engine::otp ? "otp" : "conservative");
  state.counters["warehouses"] = static_cast<double>(warehouses);
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, false);
  state.counters["latency_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["abort_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts) / static_cast<double>(t.committed)
                  : 0.0;
  state.counters["query_latency_ms"] = to_ms(t.query_latency_ns.mean());
  state.counters["audit_clean"] = audit_clean ? 1.0 : 0.0;
}
BENCHMARK(BM_TpccMix)
    ->ArgsProduct({{0, 1}, {2, 8, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Parallel-driver sweep: the full TPC-C-lite mix (10% remote NewOrder /
// 15% remote Payment included) on an 8-site OTP cluster over the wan profile
// (the sharded engine needs a switched topology), classic loop (threads=1)
// vs the sharded engine with 2/4/8 workers. Fixed work per iteration:
// real_time is the serial-vs-parallel wall-clock comparison, row by row
// against threads=1. The audit still runs per site - the parallel driver
// must not cost any consistency.
void BM_TpccMixThreads(benchmark::State& state) {
  // threads arg: 1 = classic loop, N>=2 = sharded with N workers, 0 =
  // sharded with one worker (round overhead only, no thread handoffs).
  const auto threads = static_cast<unsigned>(state.range(0));
  ClusterTotals t;
  double duration_s = 0;
  bool audit_clean = true;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 8;
    config.n_classes = 16;
    tpcc::Layout layout;
    config.objects_per_class = layout.objects_per_warehouse();
    config.seed = 1999;
    apply_topology(config, TopologyProfile::wan);
    config.parallel.threads = threads == 0 ? 1 : threads;
    config.parallel.force_sharded = threads == 0;
    auto cluster = std::make_unique<Cluster>(config);
    tpcc::MixConfig mix;
    mix.txn_per_second_per_site = 250;  // high-throughput regime
    mix.duration = 2 * kSecond;
    mix.warehouse_skew_theta = 0.6;
    mix.remote_txn_fraction = 0.1;
    tpcc::TpccDriver driver(*cluster, layout, mix, 2024);
    driver.start();
    cluster->run_for(mix.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      audit_clean &= driver.audit(s).empty();
    }
  }
  state.SetLabel(threads == 1 ? "classic-loop"
                              : (threads == 0 ? "sharded-1worker" : "sharded"));
  state.counters["threads"] = static_cast<double>(threads == 0 ? 1 : threads);
  state.counters["txn_per_s"] = goodput(t, 8, duration_s, false);
  state.counters["latency_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["audit_clean"] = audit_clean ? 1.0 : 0.0;
}
BENCHMARK(BM_TpccMixThreads)
    ->ArgNames({"threads"})
    ->ArgsProduct({{1, 0, 2, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Storage-tier sweep: the same mix over the in-memory backend (durable:0,
// the pre-storage-tier configuration - its goodput/latency rows are the
// regression guard) and the group-commit WAL backend (durable:1). Durable
// rows add the I/O counters: commits logged, fsyncs executed, the mean
// group-commit batch size (commits amortized per fsync - the paper's
// motivation for ordering the log by the definitive TO index), WAL bytes and
// checkpoints. Commits are not gated on the fsync, so goodput should match
// the memory rows; only the durability watermark trails.
void BM_TpccMixStorage(benchmark::State& state) {
  const bool durable = state.range(0) != 0;
  ClusterTotals t;
  double duration_s = 0;
  bool audit_clean = true;
  WalStats wal;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 8;
    tpcc::Layout layout;
    config.objects_per_class = layout.objects_per_warehouse();
    config.seed = 1999;
    config.net = lan();
    if (durable) config.storage.backend = StorageBackendKind::durable;
    auto cluster = std::make_unique<Cluster>(config);
    tpcc::MixConfig mix;
    mix.txn_per_second_per_site = 120;
    mix.duration = 3 * kSecond;
    mix.warehouse_skew_theta = 0.6;
    tpcc::TpccDriver driver(*cluster, layout, mix, 2024);
    driver.start();
    cluster->run_for(mix.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    wal = WalStats{};
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      audit_clean &= driver.audit(s).empty();
      if (const WalStats* w = cluster->wal_stats(s)) {
        wal.commits_logged += w->commits_logged;
        wal.fsyncs += w->fsyncs;
        wal.wal_bytes += w->wal_bytes;
        wal.checkpoints += w->checkpoints;
        wal.segments_truncated += w->segments_truncated;
      }
    }
  }
  state.SetLabel(durable ? "durable" : "memory");
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, false);
  state.counters["latency_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["audit_clean"] = audit_clean ? 1.0 : 0.0;
  if (durable) {
    state.counters["wal_commits"] = static_cast<double>(wal.commits_logged);
    state.counters["wal_fsyncs"] = static_cast<double>(wal.fsyncs);
    state.counters["group_commit_batch"] =
        wal.fsyncs ? static_cast<double>(wal.commits_logged) / static_cast<double>(wal.fsyncs)
                   : 0.0;
    state.counters["wal_kib"] = static_cast<double>(wal.wal_bytes) / 1024.0;
    state.counters["checkpoints"] = static_cast<double>(wal.checkpoints);
    state.counters["segments_truncated"] = static_cast<double>(wal.segments_truncated);
  }
}
BENCHMARK(BM_TpccMixStorage)
    ->ArgNames({"durable"})
    ->ArgsProduct({{0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
