// Claim C5 (paper Section 1, motivation): atomic broadcast "suffers from
// scalability problems as it involves coordination between sites before
// messages can be delivered" - and optimistic overlap mitigates what the
// growing delivery latency would otherwise cost transactions.
//
// Sweep: number of sites (2..16) x engine (OTP over OPT-ABcast, OTP over a
// fixed sequencer, conservative over OPT-ABcast).
// Counters: ordering gap (opt->TO, grows with n), commit latency, cluster
// throughput. The paper-shaped outcome: the ordering gap grows with n for
// every protocol, but OTP's commit latency grows far slower than the
// conservative engine's because the growth is hidden behind execution.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace otpdb::bench {
namespace {

enum class Variant : std::int64_t { otp_optimistic = 0, otp_sequencer = 1, conservative = 2 };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::otp_optimistic: return "otp/opt-abcast";
    case Variant::otp_sequencer: return "otp/sequencer";
    case Variant::conservative: return "conservative/opt-abcast";
  }
  return "?";
}

void BM_Scalability(benchmark::State& state) {
  const auto variant = static_cast<Variant>(state.range(0));
  const auto n_sites = static_cast<std::size_t>(state.range(1));
  ClusterTotals t;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = n_sites;
    config.n_classes = 2 * n_sites;  // constant per-class pressure as n grows
    config.seed = 2024;
    config.net = lan();
    config.abcast =
        variant == Variant::otp_sequencer ? AbcastKind::sequencer : AbcastKind::optimistic;
    auto cluster = variant == Variant::conservative
                       ? std::make_unique<Cluster>(config, conservative_factory())
                       : std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 40;  // constant per-site offered load
    wl.mean_exec_time = 4 * kMillisecond;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 61);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
  }
  state.SetLabel(variant_name(variant));
  state.counters["sites"] = static_cast<double>(n_sites);
  state.counters["ordering_gap_ms"] = to_ms(t.opt_to_gap_ns.mean());
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["latency_p95_ms"] = to_ms(t.commit_latency_percentiles_ns.percentile(95));
  state.counters["commit_wait_ms"] = to_ms(t.commit_wait_ns.mean());
  state.counters["cluster_txn_per_s"] =
      duration_s > 0 ? static_cast<double>(t.committed) / static_cast<double>(n_sites) /
                           duration_s
                     : 0;
}
BENCHMARK(BM_Scalability)
    ->ArgsProduct({{0, 1, 2}, {2, 4, 8, 12, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Parallel-driver sweep (wall-clock, not simulated, is the point here): the
// same 8-site OTP cluster and offered load, driven by the classic loop
// (threads=1) and by the site-sharded engine with 2/4/8 workers. Fixed work
// per iteration, so real_time IS the serial-vs-parallel comparison (the
// speedup is the threads=1 row's real_time over each other row's). The load
// is the high-throughput regime where parallelism pays: enough events per
// 150us lookahead window (serialization_time + base_delay) to amortize the
// two barrier synchronizations each window costs.
void BM_ScalabilityThreads(benchmark::State& state) {
  // threads arg: 1 = classic loop, N>=2 = sharded with N workers, and 0 =
  // sharded with ONE worker (no barrier traffic at all) - isolates the
  // windowing/mailbox overhead from the cost of actual thread handoffs.
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto n_sites = static_cast<std::size_t>(state.range(1));
  ClusterTotals t;
  std::uint64_t events = 0;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = n_sites;
    config.n_classes = 2 * n_sites;
    config.seed = 2025;
    config.net = lan();
    config.parallel.threads = threads == 0 ? 1 : threads;
    config.parallel.force_sharded = threads == 0;
    auto cluster = std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 500;  // high-throughput regime
    wl.mean_exec_time = 1 * kMillisecond;
    wl.query_fraction = 0.1;
    wl.duration = 2 * kSecond;
    WorkloadDriver driver(*cluster, wl, 61);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    events = cluster->engine() ? cluster->engine()->executed() : cluster->sim().executed();
  }
  state.SetLabel(threads == 1 ? "classic-loop"
                              : (threads == 0 ? "sharded-1worker" : "sharded"));
  state.counters["threads"] = static_cast<double>(threads == 0 ? 1 : threads);
  state.counters["sites"] = static_cast<double>(n_sites);
  state.counters["committed"] = static_cast<double>(t.committed);
  state.counters["sim_events"] = static_cast<double>(events);
  state.counters["cluster_txn_per_s"] =
      duration_s > 0
          ? static_cast<double>(t.committed) / static_cast<double>(n_sites) / duration_s
          : 0;
}
BENCHMARK(BM_ScalabilityThreads)
    ->ArgNames({"threads", "sites"})
    ->ArgsProduct({{1, 0, 2, 4, 8}, {8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// PR-6 ablation on the wan profile: what per-edge channel clocks buy over a
// single global window, and what the sharded hub drain adds on top. Legs:
//   0 = global windows (every shard marches in lockstep windows of the
//       worst-case minimum lookahead),
//   1 = channel clocks, serial barrier drain (the coordinator fans staged
//       deliveries out alone),
//   2 = channel clocks + sharded hub drain (each receiver drains its own
//       staging cells at phase start - the default).
// All three are deterministic schedules of the same offered load. The
// headline counter is EngineStats::rounds - full-stop barrier
// synchronizations, the quantity channel clocks exist to cut on topologies
// with heterogeneous lookahead; the channel legs re-run the global leg's
// configuration to report rounds_vs_global directly.
void BM_TopologyAblation(benchmark::State& state) {
  const auto leg = state.range(0);
  const auto n_sites = static_cast<std::size_t>(state.range(1));

  const auto run_once = [n_sites](WindowStrategy strategy, bool sharded_drain,
                                  EngineStats* stats, ClusterTotals* t, double* duration_s) {
    ClusterConfig config;
    config.n_sites = n_sites;
    config.n_classes = 2 * n_sites;
    config.seed = 2026;
    apply_topology(config, TopologyProfile::wan);
    config.parallel.threads = 2;
    config.parallel.force_sharded = true;
    config.parallel.strategy = strategy;
    config.parallel.sharded_hub_drain = sharded_drain;
    auto cluster = std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 40;
    wl.mean_exec_time = 4 * kMillisecond;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 61);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    if (stats) *stats = cluster->engine()->stats();
    if (t) *t = totals(*cluster);
    if (duration_s) *duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
  };

  const WindowStrategy strategy = leg == 0 ? WindowStrategy::global : WindowStrategy::channel;
  const bool sharded_drain = leg == 2;
  EngineStats stats;
  ClusterTotals t;
  double duration_s = 0;
  std::uint64_t global_rounds = 0;
  for (auto _ : state) {
    run_once(strategy, sharded_drain, &stats, &t, &duration_s);
    if (leg == 0) {
      global_rounds = stats.rounds;
    } else {
      EngineStats baseline;
      run_once(WindowStrategy::global, sharded_drain, &baseline, nullptr, nullptr);
      global_rounds = baseline.rounds;
    }
  }
  state.SetLabel(leg == 0   ? "global-window"
                 : leg == 1 ? "channel-clock/serial-drain"
                            : "channel-clock/sharded-drain");
  state.counters["sites"] = static_cast<double>(n_sites);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["rounds_vs_global"] =
      global_rounds ? static_cast<double>(stats.rounds) / static_cast<double>(global_rounds)
                    : 0.0;
  state.counters["site_activations"] = static_cast<double>(stats.site_activations);
  state.counters["window_grows"] = static_cast<double>(stats.window_grows);
  state.counters["window_shrinks"] = static_cast<double>(stats.window_shrinks);
  state.counters["committed"] = static_cast<double>(t.committed);
  state.counters["cluster_txn_per_s"] =
      duration_s > 0
          ? static_cast<double>(t.committed) / static_cast<double>(n_sites) / duration_s
          : 0;
}
BENCHMARK(BM_TopologyAblation)
    ->ArgNames({"leg", "sites"})
    ->ArgsProduct({{0, 1, 2}, {8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
