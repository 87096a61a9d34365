// Overload-robustness plane tests: admission-control hysteresis, the ingress
// gate's refusal order, sender backpressure, deadline budgets at their three
// enforcement points (presubmit, opt-delivery skip, queue-head drop by the
// per-class virtual service clock), the clients' deterministic retry loop,
// and the bit-for-bit agreement of every overload counter between the
// classic loop and the sharded engine.
//
// The deadline design under test: queue-head drops are decided by a virtual
// service clock that is a pure function of the definitive order and request
// fields - so every site drops the same transactions, stores converge, and
// 1-copy-serializability holds with drops in the history.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "abcast/opt_abcast.h"
#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/admission.h"
#include "core/cluster.h"
#include "core/lock_table_replica.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

// -- admission controller unit ------------------------------------------------

TEST(Admission, DisabledControllerAdmitsEverything) {
  AdmissionController controller;  // default config: enabled = false
  EXPECT_TRUE(controller.admit(/*depth=*/1u << 20, /*lag=*/1u << 20));
  EXPECT_FALSE(controller.shedding());
  EXPECT_EQ(controller.stats().shed_engagements, 0u);
}

TEST(Admission, HysteresisNoFlappingAtTheBoundary) {
  AdmissionConfig config;
  config.enabled = true;
  config.shed_depth = 10;
  config.resume_depth = 5;
  config.shed_lag = 100;
  config.resume_lag = 50;
  AdmissionController controller;
  controller.configure(config);

  EXPECT_TRUE(controller.admit(9, 0));    // below the high-water mark
  EXPECT_FALSE(controller.admit(10, 0));  // engages
  EXPECT_TRUE(controller.shedding());
  // Oscillating around the shed mark while above the resume mark must NOT
  // produce engage/release churn: still shedding, one engagement total.
  EXPECT_FALSE(controller.admit(9, 0));
  EXPECT_FALSE(controller.admit(10, 0));
  EXPECT_FALSE(controller.admit(6, 0));
  EXPECT_EQ(controller.stats().shed_engagements, 1u);
  EXPECT_EQ(controller.stats().shed_releases, 0u);
  // Releases only once BOTH signals recede to their resume marks.
  EXPECT_TRUE(controller.admit(5, 0));
  EXPECT_FALSE(controller.shedding());
  EXPECT_EQ(controller.stats().shed_releases, 1u);
  // A fresh overshoot is a second engagement (counted transitions, not calls).
  EXPECT_FALSE(controller.admit(11, 0));
  EXPECT_EQ(controller.stats().shed_engagements, 2u);
}

TEST(Admission, LagSignalAloneEngages) {
  AdmissionConfig config;
  config.enabled = true;
  config.shed_depth = 1000;
  config.resume_depth = 500;
  config.shed_lag = 8;
  config.resume_lag = 4;
  AdmissionController controller;
  controller.configure(config);
  EXPECT_TRUE(controller.admit(0, 7));
  EXPECT_FALSE(controller.admit(0, 8));  // lag high-water mark
  EXPECT_FALSE(controller.admit(0, 5));  // still above resume_lag
  EXPECT_TRUE(controller.admit(0, 4));
}

// -- engine-level gates -------------------------------------------------------

enum class Engine { otp, conservative, locktable };

ReplicaFactory factory_of(Engine engine) {
  if (engine == Engine::conservative) {
    return [](const ReplicaDeps& d) {
      return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                   d.registry, d.site);
    };
  }
  return [](const ReplicaDeps& d) {
    return std::make_unique<LockTableReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                              d.registry, d.site, rmw_access_extractor(d.catalog));
  };
}

/// The lock-table engine serializes per object, so its histories are checked
/// at object granularity.
CheckResult check_serializable(Engine engine,
                               const std::vector<std::vector<CommitRecord>>& logs) {
  return engine == Engine::locktable ? check_object_level_serializability(logs)
                                     : check_one_copy_serializability(logs);
}

struct DirectFixture {
  explicit DirectFixture(ClusterConfig config, Engine engine = Engine::otp)
      : cluster(engine == Engine::otp ? Cluster(config) : Cluster(config, factory_of(engine))) {
    proc = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  }
  TxnArgs args() const {
    TxnArgs a;
    a.ints = {1, 0};  // delta 1 applied to offset 0
    return a;
  }
  Cluster cluster;
  ProcId proc;
};

TEST(OverloadGate, PresubmitDeadlineExpired) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  DirectFixture f(config);
  f.cluster.run_for(10 * kMillisecond);  // now = 10ms, deadline below is past
  const SubmitResult r =
      f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kMillisecond, 5 * kMillisecond);
  EXPECT_EQ(r, SubmitResult::expired);
  EXPECT_EQ(f.cluster.replica(0).metrics().deadline_expired_presubmit, 1u);
  EXPECT_EQ(f.cluster.replica(0).metrics().admitted_updates, 0u);
  f.cluster.quiesce();
  EXPECT_EQ(f.cluster.total_committed(), 0u);
}

TEST(OverloadGate, AdmissionShedsUnderFloodAndReleasesAfterDrain) {
  // Depth is the replica's live-transaction backlog, which builds as
  // opt-deliveries outpace 5ms-serial execution - so the flood must run on
  // the simulated clock, one submission per millisecond.
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  config.admission.enabled = true;
  config.admission.shed_depth = 8;
  config.admission.resume_depth = 2;
  DirectFixture f(config);
  std::size_t admitted = 0, shed = 0;
  for (int i = 0; i < 60; ++i) {
    f.cluster.sim().schedule_at(static_cast<SimTime>(i) * kMillisecond, [&] {
      const SubmitResult r =
          f.cluster.replica(0).submit_update(f.proc, 0, f.args(), 5 * kMillisecond, 0);
      admitted += r == SubmitResult::admitted;
      shed += r == SubmitResult::shed;
    });
  }
  f.cluster.run_for(60 * kMillisecond);
  EXPECT_GT(shed, 0u) << "backlog never reached the high-water mark";
  EXPECT_GE(admitted, config.admission.shed_depth);
  const ReplicaMetrics& m = f.cluster.replica(0).metrics();
  EXPECT_EQ(m.admitted_updates, admitted);
  EXPECT_EQ(m.shed_updates, shed);
  EXPECT_GE(f.cluster.replica(0).admission().stats().shed_engagements, 1u);
  ASSERT_TRUE(f.cluster.quiesce(60 * kSecond));
  // Queue drained past the low-water mark: the gate reopens.
  EXPECT_EQ(f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kMillisecond, 0),
            SubmitResult::admitted);
  EXPECT_GE(f.cluster.replica(0).admission().stats().shed_releases, 1u);
}

TEST(OverloadGate, BackpressureCapsInflightBroadcasts) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  config.opt.max_inflight_per_sender = 4;
  DirectFixture f(config);
  std::size_t admitted = 0, backpressured = 0;
  for (int i = 0; i < 10; ++i) {
    const SubmitResult r =
        f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kMillisecond, 0);
    admitted += r == SubmitResult::admitted;
    backpressured += r == SubmitResult::backpressure;
  }
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(backpressured, 6u);
  EXPECT_EQ(f.cluster.replica(0).metrics().backpressured_updates, 6u);
  f.cluster.run_for(kSecond);  // in_flight() is 0 until opt-delivery: run first
  ASSERT_TRUE(f.cluster.quiesce());
  // Delivery drained the in-flight window: the sender may broadcast again.
  EXPECT_EQ(f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kMillisecond, 0),
            SubmitResult::admitted);
}

// -- deadline enforcement past admission --------------------------------------

TEST(Deadline, OptDeliverSkipDoesNotDropTheTransaction) {
  // Deadline (20us) is far below the network's delivery floor, so every site
  // skips the optimistic execution at opt-delivery - but the virtual service
  // clock at TO-delivery says the transaction still fits its budget
  // (vfinish = submit + 1us of service), so it commits everywhere. The skip
  // is a site-local heuristic; the drop decision is the replicated clock's.
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  DirectFixture f(config);
  const SubmitResult r =
      f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kMicrosecond, 20 * kMicrosecond);
  ASSERT_EQ(r, SubmitResult::admitted);
  f.cluster.run_for(kSecond);  // in_flight() is 0 until opt-delivery: run first
  ASSERT_TRUE(f.cluster.quiesce());
  EXPECT_EQ(f.cluster.total_committed(), f.cluster.site_count());
  std::uint64_t skips = 0, queue_drops = 0, aborts = 0;
  for (SiteId s = 0; s < f.cluster.site_count(); ++s) {
    skips += f.cluster.replica(s).metrics().deadline_skips_opt;
    queue_drops += f.cluster.replica(s).metrics().deadline_expired_queue;
    aborts += f.cluster.replica(s).metrics().aborts;
  }
  EXPECT_GT(skips, 0u);
  EXPECT_EQ(queue_drops, 0u);
  EXPECT_EQ(aborts, 0u);
}

/// Floods one conflict class so the virtual service clock pushes later
/// transactions past their budget; every site must drop exactly the same
/// suffix, keep serving the survivors, and converge.
void flood_one_class_and_check(Engine engine) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 2;
  DirectFixture f(config, engine);
  HistoryRecorder recorder(f.cluster);
  constexpr int kTxns = 10;
  constexpr SimTime kExec = 10 * kMillisecond;
  constexpr SimTime kDeadline = 50 * kMillisecond;  // fits 5 of the 10
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_EQ(f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kExec, kDeadline),
              SubmitResult::admitted);
  }
  f.cluster.run_for(kSecond);  // in_flight() is 0 until opt-delivery: run first
  ASSERT_TRUE(f.cluster.quiesce());

  const std::uint64_t drops0 = f.cluster.replica(0).metrics().deadline_expired_queue;
  EXPECT_EQ(drops0, 5u);
  for (SiteId s = 0; s < f.cluster.site_count(); ++s) {
    EXPECT_EQ(f.cluster.replica(s).metrics().deadline_expired_queue, drops0)
        << "queue-head drops diverge at site " << s;
    EXPECT_EQ(f.cluster.replica(s).metrics().committed, kTxns - drops0);
  }
  // A drop is a no-op in the history: the committed prefix is still 1CSR and
  // all stores agree (object 0 advanced once per committed transaction).
  EXPECT_TRUE(check_serializable(engine, recorder.site_logs()).ok());
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < f.cluster.site_count(); ++s) stores.push_back(&f.cluster.store(s));
  EXPECT_TRUE(compare_final_states(stores, f.cluster.catalog()).ok());
  const auto value = f.cluster.store(0).read_latest(f.cluster.catalog().object(0, 0));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(as_int(*value), static_cast<std::int64_t>(kTxns - drops0));
}

TEST(Deadline, QueueHeadDropsAreIdenticalAtEverySiteOtp) {
  flood_one_class_and_check(Engine::otp);
}

TEST(Deadline, QueueHeadDropsAreIdenticalAtEverySiteConservative) {
  flood_one_class_and_check(Engine::conservative);
}

TEST(Deadline, QueueHeadDropsAreIdenticalAtEverySiteLockTable) {
  // Every transaction writes the same object, so its lane of the service
  // clock fills exactly as the class lane does in the class-keyed engines.
  flood_one_class_and_check(Engine::locktable);
}

/// A steady deadline flood on one class, then a warm crash/recovery of a site
/// that submits nothing. By the crash the stable floor has passed the start
/// of the flood, so catch-up resumes there instead of at stage 0: the
/// recovered site must rewind its virtual service clock to its committed
/// floor and re-derive every later drop exactly as the others do.
void warm_recovery_rederives_drops(Engine engine) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 2;
  DirectFixture f(config, engine);
  HistoryRecorder recorder(f.cluster);
  constexpr int kTxns = 300;
  constexpr SimTime kGap = 2 * kMillisecond;
  constexpr SimTime kExec = 5 * kMillisecond;     // 2.5x the class's capacity
  constexpr SimTime kBudget = 40 * kMillisecond;  // relative deadline
  for (int i = 0; i < kTxns; ++i) {
    const SimTime at = i * kGap;
    f.cluster.sim().schedule_at(at, [&f, i, at] {
      ASSERT_EQ(f.cluster.replica(static_cast<SiteId>(i % 3))
                    .submit_update(f.proc, 0, f.args(), kExec, at + kBudget),
                SubmitResult::admitted);
    });
  }
  constexpr SiteId kVictim = 3;
  TOIndex floor_at_crash = 0, committed_at_crash = 0;
  f.cluster.sim().schedule_at(300 * kMillisecond, [&] {
    floor_at_crash = f.cluster.failure_detector(0).stable_floor();
    committed_at_crash = f.cluster.replica(kVictim).committed_floor();
    f.cluster.crash_site(kVictim);
  });
  f.cluster.sim().schedule_at(400 * kMillisecond, [&] { f.cluster.recover_site(kVictim); });
  f.cluster.run_for(kTxns * kGap + 200 * kMillisecond);
  ASSERT_TRUE(f.cluster.quiesce());
  f.cluster.run_for(kSecond);

  EXPECT_GT(floor_at_crash, 1u) << "the floor had not passed the start of the flood";
  const auto& abcast = dynamic_cast<const OptAbcast&>(f.cluster.abcast(kVictim));
  EXPECT_FALSE(abcast.recovering());
  // Every site commits exactly the same indices; the rest were dropped.
  std::vector<std::vector<TOIndex>> committed(config.n_sites);
  for (SiteId s = 0; s < config.n_sites; ++s) {
    for (const CommitRecord& r : recorder.site_logs()[s]) committed[s].push_back(r.index);
    std::sort(committed[s].begin(), committed[s].end());
    EXPECT_EQ(committed[s], committed[0]) << "site " << s << " committed different indices";
  }
  std::vector<TOIndex> dropped;  // one class, no other traffic: indices 1..kTxns
  for (TOIndex i = 1; i <= kTxns; ++i) {
    if (!std::binary_search(committed[0].begin(), committed[0].end(), i)) dropped.push_back(i);
  }
  ASSERT_FALSE(dropped.empty());
  EXPECT_GT(dropped.back(), committed_at_crash)
      << "no drop for the recovered site to re-derive after its committed floor";
  EXPECT_TRUE(check_serializable(engine, recorder.site_logs()).ok());
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < f.cluster.site_count(); ++s) stores.push_back(&f.cluster.store(s));
  EXPECT_TRUE(compare_final_states(stores, f.cluster.catalog()).ok());
}

TEST(Deadline, WarmRecoveryRederivesDropsOtp) { warm_recovery_rederives_drops(Engine::otp); }

TEST(Deadline, WarmRecoveryRederivesDropsConservative) {
  warm_recovery_rederives_drops(Engine::conservative);
}

TEST(Deadline, WarmRecoveryRederivesDropsLockTable) {
  warm_recovery_rederives_drops(Engine::locktable);
}

/// Two classes, 30% of the updates spanning both, offered far past
/// saturation with a 20 ms budget. A dropped cross-class transaction still
/// waits in both queues until it heads them, so the service clock must hold
/// both its lanes until then: if it charged none, the idle class's lane
/// would admit work that then queues behind the drop, and commit latency
/// would grow with the backlog (to hundreds of ms). The clock budgets
/// service; the ordering that follows it is not charged, so every commit
/// must land within the budget plus an ordering slack of a few lan stages.
void cross_class_drops_keep_latency_bounded(Engine engine) {
  constexpr SimTime kBudget = 20 * kMillisecond;
  constexpr SimTime kOrderingSlack = 10 * kMillisecond;
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 2;
  Cluster cluster = engine == Engine::otp ? Cluster(config) : Cluster(config, factory_of(engine));
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 1500;  // ~4.5x the two classes' capacity
  wl.mean_exec_time = 3 * kMillisecond;
  wl.cross_class_fraction = 0.3;
  wl.duration = kSecond;
  wl.deadline_budget = kBudget;
  wl.max_retries = 8;
  WorkloadDriver driver(cluster, wl, 10);
  driver.start();
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce());

  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    EXPECT_GT(m.deadline_expired_queue, 0u) << "the load never passed saturation";
    ASSERT_GT(m.commit_latency_ns.count(), 0u);
    EXPECT_LE(m.commit_latency_ns.max(), static_cast<double>(kBudget + kOrderingSlack))
        << "a commit at site " << s << " overran its budget by more than the ordering slack";
  }
  EXPECT_TRUE(check_serializable(engine, recorder.site_logs()).ok());
}

TEST(Deadline, CrossClassDropsKeepLatencyBoundedOtp) {
  cross_class_drops_keep_latency_bounded(Engine::otp);
}

TEST(Deadline, CrossClassDropsKeepLatencyBoundedConservative) {
  cross_class_drops_keep_latency_bounded(Engine::conservative);
}

/// The conservative engine must retire a drop in queue order, after the
/// predecessors queued ahead of it. The same flood as above, with a snapshot
/// query and a class-watermark probe at every site each millisecond: a query
/// whose snapshot covers a drop must see every predecessor's write (oracle:
/// the site's commit history), and no class watermark may ever decrease.
TEST(Deadline, ConservativeDropsRetireInQueueOrder) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 2;
  DirectFixture f(config, Engine::conservative);
  HistoryRecorder recorder(f.cluster);
  constexpr int kTxns = 10;
  constexpr SimTime kExec = 10 * kMillisecond;
  constexpr SimTime kDeadline = 50 * kMillisecond;  // fits 5 of the 10
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_EQ(f.cluster.replica(0).submit_update(f.proc, 0, f.args(), kExec, kDeadline),
              SubmitResult::admitted);
  }
  const ObjectId obj = f.cluster.catalog().object(0, 0);
  std::vector<std::vector<QueryReport>> reports(config.n_sites);
  std::vector<std::vector<TOIndex>> watermarks(config.n_sites);
  for (SimTime t = 0; t < 200 * kMillisecond; t += kMillisecond) {
    f.cluster.sim().schedule_at(t, [&f, &reports, &watermarks, obj] {
      for (SiteId s = 0; s < f.cluster.site_count(); ++s) {
        auto& replica = dynamic_cast<ConservativeReplica&>(f.cluster.replica(s));
        watermarks[s].push_back(replica.last_committed(0));
        replica.submit_query([obj](QueryContext& ctx) { (void)ctx.read_int(obj); },
                             100 * kMicrosecond,
                             [&reports, s](const QueryReport& r) { reports[s].push_back(r); });
      }
    });
  }
  f.cluster.run_for(kSecond);
  EXPECT_TRUE(f.cluster.quiesce()) << "a query waits forever";

  for (SiteId s = 0; s < f.cluster.site_count(); ++s) {
    EXPECT_EQ(f.cluster.replica(s).metrics().deadline_expired_queue, 5u);
    EXPECT_TRUE(std::is_sorted(watermarks[s].begin(), watermarks[s].end()))
        << "class 0 watermark decreased at site " << s;
    // Oracle: object `obj` at snapshot i holds the write of the site's last
    // commit with index <= i (0 before any). Drops write nothing.
    std::map<TOIndex, std::int64_t> written;
    for (const CommitRecord& r : recorder.site_logs()[s]) {
      for (const auto& [o, v] : r.writes) {
        if (o == obj) written[r.index] = as_int(v);
      }
    }
    ASSERT_EQ(written.size(), 5u);
    const TOIndex first_drop = written.rbegin()->first + 1;  // drops follow the survivors
    std::size_t covering = 0, stale = 0;
    for (const QueryReport& r : reports[s]) {
      const auto next = written.upper_bound(r.snapshot_index);
      const std::int64_t expected = next == written.begin() ? 0 : std::prev(next)->second;
      ASSERT_EQ(r.reads.size(), 1u);
      stale += as_int(r.reads[0].second) != expected ? 1 : 0;
      covering += r.snapshot_index >= first_drop ? 1 : 0;
    }
    EXPECT_EQ(stale, 0u) << "queries missed a predecessor's write at site " << s;
    EXPECT_EQ(reports[s].size(), 200u);
    EXPECT_GT(covering, 0u) << "no query snapshot covered a drop at site " << s;
  }
}

// -- client retry loop --------------------------------------------------------

struct OverloadRunResult {
  std::vector<std::uint64_t> counters;
  std::uint64_t committed = 0;
  bool operator==(const OverloadRunResult&) const = default;
};

OverloadRunResult run_overloaded_workload(TopologyProfile topology, bool force_sharded) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.seed = 99;
  config.admission.enabled = true;
  config.admission.shed_depth = 48;
  config.admission.resume_depth = 16;
  config.opt.max_inflight_per_sender = 128;
  config.parallel.force_sharded = force_sharded;
  config.net.topology = topology;  // only a switched topology shards

  Cluster cluster(config);
  EXPECT_EQ(cluster.engine() != nullptr, force_sharded);
  WorkloadConfig wl;
  // ~2x the service capacity of 4 classes at 4ms mean service time.
  wl.updates_per_second_per_site = 500;
  wl.mean_exec_time = 4 * kMillisecond;
  wl.duration = 600 * kMillisecond;
  wl.deadline_budget = 120 * kMillisecond;
  wl.max_retries = 4;
  WorkloadDriver driver(cluster, wl, 4242);
  driver.start();
  cluster.run_for(wl.duration);
  EXPECT_TRUE(cluster.quiesce(120 * kSecond));

  OverloadRunResult out;
  out.committed = cluster.total_committed();
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    for (std::uint64_t v : {m.admitted_updates, m.shed_updates, m.backpressured_updates,
                            m.deadline_expired_presubmit, m.deadline_skips_opt,
                            m.deadline_expired_queue, m.committed, m.aborts}) {
      out.counters.push_back(v);
    }
    const AdmissionStats& a = cluster.replica(s).admission().stats();
    out.counters.push_back(a.shed_engagements);
    out.counters.push_back(a.shed_releases);
  }
  out.counters.push_back(driver.updates_submitted());
  out.counters.push_back(driver.retries());
  out.counters.push_back(driver.gave_up());
  out.counters.push_back(driver.expired_presubmit());
  return out;
}

TEST(OverloadRetry, BackoffIsDeterministicAcrossIdenticalRuns) {
  const OverloadRunResult a = run_overloaded_workload(TopologyProfile::lan, false);
  const OverloadRunResult b = run_overloaded_workload(TopologyProfile::lan, false);
  EXPECT_GT(a.committed, 0u);
  // The overload actually engaged: retries happened, some work was refused.
  EXPECT_GT(a.counters.back() + a.counters[a.counters.size() - 3], 0u)
      << "workload never tripped the admission gate - thresholds too loose";
  EXPECT_EQ(a, b) << "seeded backoff/jitter must make retry schedules replayable";
}

TEST(OverloadRetry, CountersBitIdenticalClassicVsSharded) {
  // Shedding, deadline drops and the retry backoff are all driven by
  // deterministic per-site state, so on a fault-free switched topology the
  // sharded engine reproduces the classic loop's counters exactly.
  const OverloadRunResult classic = run_overloaded_workload(TopologyProfile::metro, false);
  EXPECT_GT(classic.committed, 0u);
  EXPECT_EQ(classic, run_overloaded_workload(TopologyProfile::metro, true))
      << "overload counters diverge between the classic loop and the sharded engine";
}

}  // namespace
}  // namespace otpdb
