// Chaos-plane determinism and survival tests (net/fault_plan.h).
//
// Every fault clause the plane can inject - duplication, bounded reordering,
// one-way partitions, link flapping, gray links - plus the storage fault
// injector (db/io_shim.h) is exercised here under the full stack, with the
// acceptance bar of the chaos work:
//
//   1. determinism: one (plan, seed) configuration produces bit-for-bit
//      identical commit histories, final states, and chaos counters across
//      sharded runs with 1, 2, 4, and 8 worker threads (on metro: only a
//      switched topology shards);
//   2. survival: the InvariantMonitor battery (watermark monotonicity, 1CSR,
//      cross-site convergence) reports zero violations in every scenario,
//      including a durable kill-and-restart-from-disk leg with the I/O fault
//      injector live;
//   3. injection actually happened: each scenario asserts its fault counters
//      are non-zero, so a silently disarmed plan cannot pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "checker/invariant_monitor.h"
#include "core/cluster.h"
#include "db/durable_store.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t digest_value(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<std::uint64_t>(*i);
  const double d = std::get<double>(v);
  std::uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::vector<std::uint64_t> history_digests(const HistoryRecorder& recorder) {
  std::vector<std::uint64_t> out;
  for (const auto& log : recorder.site_logs()) {
    Fnv f;
    for (const CommitRecord& r : log) {
      f.add(r.txn.sender);
      f.add(r.txn.seq);
      f.add(r.proc);
      f.add(r.klass);
      for (ClassId c : r.classes) f.add(c);
      f.add(r.index);
      f.add(static_cast<std::uint64_t>(r.at));
      for (const auto& [obj, value] : r.writes) {
        f.add(obj);
        f.add(digest_value(value));
      }
    }
    out.push_back(f.h);
  }
  return out;
}

std::uint64_t store_digest(Cluster& cluster) {
  Fnv f;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    for (ObjectId obj = 0; obj < cluster.catalog().object_count(); ++obj) {
      const auto v = cluster.store(s).read_latest(obj);
      f.add(v ? digest_value(*v) : 0xdeadull);
    }
  }
  return f.h;
}

struct Scenario {
  FaultPlan plan;
  bool durable = false;
  bool storage_faults = false;  ///< arm the I/O injector (implies durable)
  bool kill_restart = false;    ///< crash site 4 and restart it from disk
};

struct RunResult {
  std::vector<std::uint64_t> history;
  std::uint64_t stores = 0;
  std::uint64_t delivered = 0;
  std::uint64_t committed = 0;
  ChaosStats chaos;
  FailureDetectorStats fd;
  std::uint64_t invariant_violations = 0;
  std::uint64_t io_injected = 0;
};

void expect_equal(const RunResult& base, const RunResult& other, unsigned threads) {
  EXPECT_EQ(base.history, other.history) << "commit histories diverge at threads=" << threads;
  EXPECT_EQ(base.stores, other.stores) << "final states diverge at threads=" << threads;
  EXPECT_EQ(base.delivered, other.delivered) << "deliveries diverge at threads=" << threads;
  EXPECT_EQ(base.committed, other.committed) << "commit counts diverge at threads=" << threads;
  // Chaos accounting is part of the determinism contract: the same faults
  // fire at the same points regardless of the worker-thread count.
  EXPECT_EQ(base.chaos.duplicates_injected, other.chaos.duplicates_injected);
  EXPECT_EQ(base.chaos.duplicates_suppressed, other.chaos.duplicates_suppressed);
  EXPECT_EQ(base.chaos.reorders_injected, other.chaos.reorders_injected);
  EXPECT_EQ(base.chaos.gray_delays, other.chaos.gray_delays);
  EXPECT_EQ(base.chaos.deliveries_parked, other.chaos.deliveries_parked);
  EXPECT_EQ(base.chaos.parked_released, other.chaos.parked_released);
  EXPECT_EQ(base.chaos.flap_transitions, other.chaos.flap_transitions);
  EXPECT_EQ(base.fd.suspicions, other.fd.suspicions);
  EXPECT_EQ(base.fd.restores, other.fd.restores);
  EXPECT_EQ(base.io_injected, other.io_injected) << "I/O faults diverge at threads=" << threads;
}

RunResult run_scenario(const Scenario& scenario, unsigned threads) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.parallel.threads = threads;
  config.parallel.force_sharded = true;
  config.net.topology = TopologyProfile::metro;
  config.chaos.plan = scenario.plan;
  if (scenario.durable || scenario.storage_faults) {
    config.storage.backend = StorageBackendKind::durable;
  }
  if (scenario.storage_faults) {
    config.storage.faults.enabled = true;
    config.storage.faults.seed = 19;
    config.storage.faults.write_error_prob = 0.05;
    config.storage.faults.torn_write_prob = 0.02;
    config.storage.faults.fsync_error_prob = 0.05;
  }
  auto cluster = std::make_unique<Cluster>(config);
  EXPECT_NE(cluster->engine(), nullptr) << "metro must run the sharded engine";

  InvariantMonitor::Config monitor_config;
  monitor_config.dedup_replayed_commits = scenario.kill_restart;
  InvariantMonitor monitor(*cluster, monitor_config);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 900 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();

  if (scenario.kill_restart) {
    cluster->sim().schedule_at(450 * kMillisecond, [&cluster] { cluster->crash_site(4); });
    cluster->sim().schedule_at(650 * kMillisecond,
                               [&cluster] { cluster->restart_site_from_disk(4); });
  }

  cluster->run_for(wl.duration + 200 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));
  cluster->run_for(kSecond);  // settle in-flight retransmissions/parked replays

  RunResult out;
  out.history = history_digests(monitor.recorder());
  out.stores = store_digest(*cluster);
  out.delivered = cluster->net().delivered_count();
  out.committed = cluster->total_committed();
  out.chaos = cluster->chaos_stats();
  out.fd = cluster->fd_stats();
  if (scenario.storage_faults) {
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      if (const IoFaultStats* f = cluster->storage(s).io_fault_stats()) {
        out.io_injected += f->injected();
      }
    }
  }
  const CheckResult check = monitor.finish();
  EXPECT_GT(monitor.samples(), 0u);
  EXPECT_TRUE(check.ok()) << check.summary();
  out.invariant_violations = check.violations.size();
  return out;
}

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

/// Runs the scenario at every thread count, checks bit-for-bit parity, and
/// returns the base run so callers can assert injection counters.
RunResult sweep(const Scenario& scenario) {
  const RunResult base = run_scenario(scenario, 1);
  EXPECT_GT(base.committed, 0u);
  EXPECT_EQ(base.invariant_violations, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_scenario(scenario, threads), threads);
  }
  return base;
}

// -- one sweep per fault clause ----------------------------------------------

TEST(ChaosPlane, DuplicationSurvivesAndIsDeterministic) {
  Scenario s;
  s.plan.add(FaultPlan::duplicate(0.3, 0, 3 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.duplicates_injected, 0u);
  // Transport dedup must absorb the injected copies. A handful of copies are
  // legitimately still in flight at the simulation horizon (heartbeats never
  // stop), so allow that tail - it is deterministic, the parity sweep above
  // already pinned it bit-for-bit.
  EXPECT_LE(base.chaos.duplicates_suppressed, base.chaos.duplicates_injected);
  EXPECT_GE(base.chaos.duplicates_suppressed + 32, base.chaos.duplicates_injected);
}

TEST(ChaosPlane, ReorderingSurvivesAndIsDeterministic) {
  Scenario s;
  s.plan.add(FaultPlan::reorder(0.15, 2 * kMillisecond, 10 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.reorders_injected, 0u);
}

TEST(ChaosPlane, OneWayPartitionSurvivesAndIsDeterministic) {
  Scenario s;
  // Site 4 goes deaf to sites 0-1 for a third of the run; traffic the other
  // way keeps flowing (the asymmetric case symmetric partitions cannot model).
  s.plan.add(FaultPlan::one_way({0, 1}, {4}, 250 * kMillisecond, 550 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.deliveries_parked, 0u);
  EXPECT_GT(base.chaos.parked_released, 0u);
}

TEST(ChaosPlane, LinkFlappingSurvivesAndIsDeterministic) {
  Scenario s;
  s.plan.add(FaultPlan::flap({0}, {4}, 120 * kMillisecond, 0.5, 100 * kMillisecond,
                             800 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.flap_transitions, 0u);
  EXPECT_GT(base.chaos.deliveries_parked, 0u);
}

TEST(ChaosPlane, GrayLinkSurvivesAndIsDeterministic) {
  Scenario s;
  // Slow-but-alive edges into site 4: delays larger than the suspect timeout
  // provoke false suspicions; hysteresis must restore them and the run must
  // stay serializable.
  s.plan.add(FaultPlan::gray({}, {4}, 40 * kMillisecond, 160 * kMillisecond,
                             200 * kMillisecond, 700 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.gray_delays, 0u);
  EXPECT_EQ(base.fd.suspicions, base.fd.restores) << "a gray link is not a crash";
}

TEST(ChaosPlane, CombinedPlanSurvivesAndIsDeterministic) {
  // All per-message clauses plus a flapping edge at once - the hostile-network
  // soup. Every counter must still be thread-count invariant.
  Scenario s;
  s.plan.add(FaultPlan::duplicate(0.15, 0, 2 * kMillisecond))
      .add(FaultPlan::reorder(0.1, kMillisecond, 6 * kMillisecond))
      .add(FaultPlan::gray({}, {3}, 20 * kMillisecond, 60 * kMillisecond, 300 * kMillisecond,
                           600 * kMillisecond))
      .add(FaultPlan::flap({2}, {0}, 150 * kMillisecond, 0.4));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.duplicates_injected, 0u);
  EXPECT_GT(base.chaos.reorders_injected, 0u);
  EXPECT_GT(base.chaos.gray_delays, 0u);
  EXPECT_GT(base.chaos.flap_transitions, 0u);
}

// -- storage faults -----------------------------------------------------------

TEST(ChaosPlane, DurableBackendUnderNetworkChaos) {
  Scenario s;
  s.durable = true;
  s.plan.add(FaultPlan::duplicate(0.2, 0, 2 * kMillisecond))
      .add(FaultPlan::reorder(0.1, kMillisecond, 5 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.chaos.duplicates_injected, 0u);
}

TEST(ChaosPlane, InjectedIoFaultsSurviveAndAreDeterministic) {
  Scenario s;
  s.storage_faults = true;
  const RunResult base = sweep(s);
  EXPECT_GT(base.io_injected, 0u) << "the injector never fired";
}

TEST(ChaosPlane, KillRestartFromDiskUnderChaosWithIoFaults) {
  // The acceptance leg: network chaos + live I/O injector + a cold restart
  // from disk, and the whole battery (watermark monotonicity across the
  // restart, 1CSR over the deduped histories, convergence) stays green at
  // every thread count.
  Scenario s;
  s.storage_faults = true;
  s.kill_restart = true;
  s.plan.add(FaultPlan::duplicate(0.15, 0, 2 * kMillisecond))
      .add(FaultPlan::gray({}, {2}, 10 * kMillisecond, 40 * kMillisecond, 200 * kMillisecond,
                           500 * kMillisecond));
  const RunResult base = sweep(s);
  EXPECT_GT(base.io_injected, 0u);
  EXPECT_GT(base.chaos.duplicates_injected, 0u);
}

// -- no-chaos bit-compatibility ----------------------------------------------

TEST(ChaosPlane, EmptyPlanLeavesRunsBitIdentical) {
  // An empty ChaosConfig must not perturb anything: same digests as a config
  // that never mentions chaos (the rng split only happens when armed).
  const RunResult base = run_scenario(Scenario{}, 2);
  Scenario explicit_empty;
  explicit_empty.plan = FaultPlan{};
  expect_equal(base, run_scenario(explicit_empty, 2), 2);
  EXPECT_EQ(base.chaos.duplicates_injected, 0u);
  EXPECT_EQ(base.chaos.deliveries_parked, 0u);
}

}  // namespace
}  // namespace otpdb
