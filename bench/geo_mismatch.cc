// Topology leg of the mismatch experiment (paper Sections 3.2 and 4): how
// often the optimistic (tentative) delivery order disagrees with the final
// (definitive) order as the network grows from a single broadcast domain to
// metro, wan, and three-datacenter shapes.
//
// The paper's optimism is calibrated for a LAN, where spontaneous total
// order makes mismatches rare. Wide-area profiles break that assumption two
// ways: per-edge jitter reorders messages between regions, and the larger
// opt->TO gap gives every mismatch more provisional work to undo. This bench
// records the opt-vs-final mismatch rate per profile - the fraction of
// commits whose transaction was wrongly ordered at its head (abort + redo,
// CC8) or moved behind a conflicting peer (reorder, CC10) - plus the
// ordering fast-path rate as the network-level mismatch indicator.
#include <benchmark/benchmark.h>

#include "abcast/opt_abcast.h"
#include "bench_common.h"
#include "net/topology.h"

namespace otpdb::bench {
namespace {

void BM_GeoMismatch(benchmark::State& state) {
  const auto profile = static_cast<TopologyProfile>(state.range(0));
  ClusterTotals t;
  double fast_pct = 0;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 6;
    config.n_classes = 8;
    config.seed = 424;
    apply_topology(config, profile);
    Cluster cluster(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 60;
    wl.mean_exec_time = 2 * kMillisecond;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(cluster, wl, 31);
    driver.start();
    cluster.run_for(wl.duration);
    cluster.quiesce(300 * kSecond);
    t = totals(cluster);
    duration_s = static_cast<double>(cluster.sim().now()) / 1e9;
    if (auto* opt = dynamic_cast<OptAbcast*>(&cluster.abcast(0))) {
      const auto& cs = opt->consensus_stats();
      fast_pct = cs.instances_decided ? 100.0 * static_cast<double>(cs.fast_decides) /
                                            static_cast<double>(cs.instances_decided)
                                      : 100.0;
    }
  }
  state.SetLabel(topology_profile_name(profile));
  const double commits = static_cast<double>(t.committed);
  state.counters["mismatch_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts + t.reorders) / commits : 0.0;
  state.counters["abort_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts) / commits : 0.0;
  state.counters["reorder_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.reorders) / commits : 0.0;
  state.counters["fast_path_pct"] = fast_pct;
  state.counters["ordering_gap_ms"] = to_ms(t.opt_to_gap_ns.mean());
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["txn_per_s"] =
      duration_s > 0 ? static_cast<double>(t.committed) / 6.0 / duration_s : 0;
}
BENCHMARK(BM_GeoMismatch)
    ->ArgNames({"profile"})
    ->Args({static_cast<std::int64_t>(TopologyProfile::lan)})
    ->Args({static_cast<std::int64_t>(TopologyProfile::metro)})
    ->Args({static_cast<std::int64_t>(TopologyProfile::wan)})
    ->Args({static_cast<std::int64_t>(TopologyProfile::geo_3dc)})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
