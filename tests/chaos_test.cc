// Chaos schedule: randomized crash/recovery sequences, network turbulence and
// load on an OTP cluster, with the full correctness battery applied at the
// end. Each seed generates a different fault schedule; the invariants
// (Theorem 4.2 serializability, state convergence, exact conservation) must
// hold on every one. The sweep runs twice: once on the in-memory backend and
// once on the durable WAL backend, where the same schedules must additionally
// leave every surviving site's log replayable.
#include <gtest/gtest.h>

#include <algorithm>

#include "abcast/opt_abcast.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "db/durable_store.h"
#include "net/fault_plan.h"
#include "util/rng.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

void run_chaos_schedule(std::uint64_t seed, bool durable) {
  Rng chaos(seed * 7919);

  ClusterConfig config;
  config.n_sites = 5;  // tolerate f = 2
  config.n_classes = 4;
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = seed;
  config.net.hiccup_prob = chaos.uniform_double(0.02, 0.25);
  config.net.hiccup_mean = chaos.uniform_int(1, 4) * kMillisecond;
  config.opt.consensus.round_timeout = 15 * kMillisecond;
  if (durable) config.storage.backend = StorageBackendKind::durable;

  // Network chaos plane riding on top of the crash schedule: every run draws
  // duplication and bounded reordering, and half the runs add a flapping or
  // gray link between always-up sites. The invariants must not notice.
  const SimTime horizon = 3 * kSecond;
  config.chaos.plan.add(FaultPlan::duplicate(chaos.uniform_double(0.05, 0.30), 0,
                                             3 * kMillisecond, 0, horizon));
  config.chaos.plan.add(FaultPlan::reorder(chaos.uniform_double(0.05, 0.20), kMillisecond,
                                           8 * kMillisecond, 0, horizon));
  if (chaos.bernoulli(0.5)) {
    config.chaos.plan.add(FaultPlan::flap({0}, {1}, chaos.uniform_int(80, 160) * kMillisecond,
                                          0.4, 300 * kMillisecond, 1500 * kMillisecond));
  } else {
    config.chaos.plan.add(FaultPlan::gray({1}, {2}, 2 * kMillisecond, 20 * kMillisecond,
                                          300 * kMillisecond, 1500 * kMillisecond));
  }

  Cluster cluster(config);
  HistoryRecorder recorder(cluster);

  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 60;
  mix.duration = 2 * kSecond;
  tpcc::TpccDriver driver(cluster, layout, mix, seed + 5);
  driver.start();

  // Random fault schedule: 2-3 crash/recover episodes on sites 3 and 4
  // (clients submit at sites 0-2, which stay up, so no requests are lost
  // with their acceptor).
  const int episodes = static_cast<int>(chaos.uniform_int(2, 3));
  SimTime t = 200 * kMillisecond;
  for (int e = 0; e < episodes; ++e) {
    const SiteId victim = static_cast<SiteId>(chaos.uniform_int(3, 4));
    const SimTime down_at = t + chaos.uniform_int(0, 200) * kMillisecond;
    const SimTime up_at = down_at + chaos.uniform_int(150, 500) * kMillisecond;
    cluster.sim().schedule_at(down_at, [&cluster, victim] {
      if (!cluster.net().crashed(victim)) cluster.crash_site(victim);
    });
    cluster.sim().schedule_at(up_at, [&cluster, victim] {
      if (cluster.net().crashed(victim)) cluster.recover_site(victim);
    });
    t = up_at + 100 * kMillisecond;
  }

  cluster.run_for(std::max<SimTime>(mix.duration, t) + kSecond);
  ASSERT_TRUE(cluster.quiesce(180 * kSecond)) << "seed " << seed;
  cluster.run_for(2 * kSecond);  // settle recoveries

  // Correctness battery.
  const CheckResult serializability = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(serializability.ok()) << "seed " << seed << ": " << serializability.summary();

  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << "seed " << seed << ": " << convergence.summary();

  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const auto violations = driver.audit(s);
    EXPECT_TRUE(violations.empty()) << "seed " << seed << " site " << s << ": "
                                    << (violations.empty() ? "" : violations[0]);
  }
  // The always-up sites committed everything that was submitted there.
  EXPECT_GT(cluster.replica(0).metrics().committed, 100u);
  // Dup/reorder clauses fired and the transport swallowed every duplicate it
  // saw (copies still in flight at the horizon are never seen, hence <=).
  const ChaosStats& net_chaos = cluster.chaos_stats();
  EXPECT_GT(net_chaos.duplicates_injected, 0u) << "seed " << seed;
  EXPECT_GT(net_chaos.reorders_injected, 0u) << "seed " << seed;
  EXPECT_LE(net_chaos.duplicates_suppressed, net_chaos.duplicates_injected);

  if (durable) {
    // Every always-up site's durable tier stayed healthy (no injector armed
    // here - network chaos must never corrupt the WAL) and its watermark
    // reached the commit log.
    for (SiteId s = 0; s < 3; ++s) {
      const auto* store = dynamic_cast<const DurableStore*>(&cluster.storage(s));
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->health(), StorageHealth::ok) << "seed " << seed << " site " << s;
      EXPECT_EQ(cluster.wal_stats(s)->io_errors, 0u) << "seed " << seed << " site " << s;
    }
  }
}

/// Site 3 crashes at 0.5 s and warm-recovers 100 ms later, every 400 ms
/// while the load runs.
void crash_and_recover_site3(Cluster& cluster, SimTime horizon) {
  for (SimTime at = 500 * kMillisecond; at + 500 * kMillisecond < horizon;
       at += 400 * kMillisecond) {
    cluster.sim().schedule_at(at, [&cluster] { cluster.crash_site(3); });
    cluster.sim().schedule_at(at + 100 * kMillisecond, [&cluster] { cluster.recover_site(3); });
  }
}

/// Every site commits each transaction once and all commit the same ones;
/// the history is 1-copy serializable and the stores converge.
void expect_committed_once_everywhere(Cluster& cluster, HistoryRecorder& recorder) {
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    std::vector<MsgId> txns;
    for (const CommitRecord& r : recorder.site_logs()[s]) txns.push_back(r.txn);
    std::sort(txns.begin(), txns.end());
    EXPECT_EQ(std::adjacent_find(txns.begin(), txns.end()), txns.end())
        << "site " << s << " committed a transaction twice";
    EXPECT_EQ(txns.size(), recorder.site_logs()[0].size()) << "site " << s;
  }
  const CheckResult serializability = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(serializability.ok()) << serializability.summary();
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
}

/// Late copies below the stable floor. Chaos duplicates every link (the
/// transport swallows the copies) and slows every frame from site 0 to site 3
/// by up to 400 ms. Site 3 orders site 0's messages from the peers' decisions
/// and fetches their bodies from a peer long before the original copies
/// arrive; by then the floor has often passed them and their slots are gone.
/// Each such late copy - and each late consensus message for a trimmed
/// instance - is dropped and counted, never delivered a second time.
///
/// With `crash_receiver`, site 3 also crashes and warm-recovers inside the
/// link delay, again and again: copies of messages it delivered before the
/// crash reach it after it recovered, while the peers have trimmed the stages
/// that ordered them. The recovered site must still recognize them as ordered.
/// Network hiccups then leave some peers behind the recovering site, which
/// must not resume from one that has not yet reached its committed floor.
void run_late_copies(bool crash_receiver, std::uint64_t seed) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.objects_per_class = 16;
  config.seed = seed;
  if (crash_receiver) {
    config.net.hiccup_prob = 0.3;
    config.net.hiccup_mean = 2 * kMillisecond;
  }
  const SimTime horizon = 3 * kSecond;
  config.chaos.plan.add(FaultPlan::duplicate(0.2, 0, 3 * kMillisecond, 0, horizon));
  config.chaos.plan.add(
      FaultPlan::gray({0}, {3}, 50 * kMillisecond, 400 * kMillisecond, 0, horizon));
  Cluster cluster(config);
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.duration = horizon;
  WorkloadDriver driver(cluster, wl, 11);
  driver.start();
  if (crash_receiver) crash_and_recover_site3(cluster, horizon);
  cluster.run_for(horizon);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  cluster.run_for(kSecond);

  EXPECT_GT(cluster.chaos_stats().duplicates_injected, 0u);
  const auto& receiver = dynamic_cast<const OptAbcast&>(cluster.abcast(3));
  EXPECT_GT(receiver.stats().below_floor_dropped, 0u)
      << "no late copy reached site 3 below the floor";
  if (crash_receiver) {
    EXPECT_GT(receiver.stats().recovery_tombstones, 0u);
  } else {
    // Only without crashes: a submission at a crashed site is lost with it.
    EXPECT_EQ(recorder.site_logs()[0].size(), driver.updates_submitted());
  }
  expect_committed_once_everywhere(cluster, recorder);
}

TEST(ChaosFloor, LateCopiesBelowTheFloorAreDroppedNotRedelivered) {
  run_late_copies(/*crash_receiver=*/false, /*seed=*/3);
}

TEST(ChaosFloor, RecoveredReceiverDropsLateCopiesOrderedBeforeItsResumePoint) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_late_copies(/*crash_receiver=*/true, seed);
  }
}

/// Loss with a long retransmission timeout holds a message back at some
/// receivers, its sender included, for one or more timeouts. A sender's later
/// message is then often ordered, and its slot trimmed, while an earlier one
/// is still unordered. Site 3 keeps crashing and recovering meanwhile, so the
/// catch-up answer that places it must describe such a message as not yet
/// ordered, whether it lies below the responder's front or in the untouched
/// gap above it, and a message a skipped stage ordered above the front as
/// ordered. Only sites 0-2 submit: a broadcast that site 3 took down with it
/// after only a minority received it may never be ordered (ROADMAP,
/// direction 5), which is not what this test is about.
void run_lossy_recoveries(SimTime retransmit, std::uint64_t seed) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.objects_per_class = 16;
  config.seed = seed;
  config.net.loss_prob = 0.2;
  config.net.retransmit_timeout = retransmit;
  const SimTime horizon = 3 * kSecond;
  Cluster cluster(config);
  HistoryRecorder recorder(cluster);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  Rng rng(seed);
  for (SimTime at = 0; at < horizon; at += 4 * kMillisecond) {
    const auto site = static_cast<SiteId>(at / (4 * kMillisecond) % 3);
    const auto klass = static_cast<ClassId>(rng.uniform_int(0, 3));
    const auto offset = static_cast<std::int64_t>(rng.uniform_int(0, 15));
    cluster.sim().schedule_at(at, [&cluster, rmw, site, klass, offset] {
      TxnArgs args;
      args.ints = {1, offset};
      cluster.replica(site).submit_update(rmw, klass, std::move(args), 2 * kMillisecond);
    });
  }
  crash_and_recover_site3(cluster, horizon);
  cluster.run_for(horizon);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  cluster.run_for(kSecond);
  EXPECT_EQ(recorder.site_logs()[0].size(), horizon / (4 * kMillisecond));
  expect_committed_once_everywhere(cluster, recorder);
}

TEST(ChaosFloor, RecoveriesUnderLossOrderEveryMessageOnce) {
  for (const SimTime retransmit : {100 * kMillisecond, 250 * kMillisecond}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "retransmit " << retransmit / kMillisecond << " ms, seed " << seed);
      run_lossy_recoveries(retransmit, seed);
    }
  }
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, InvariantsSurviveRandomFaultSchedules) {
  run_chaos_schedule(GetParam(), /*durable=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

class DurableChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurableChaosSweep, InvariantsSurviveRandomFaultSchedulesOnDisk) {
  run_chaos_schedule(GetParam(), /*durable=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurableChaosSweep, ::testing::Values(1u, 3u, 5u, 7u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace otpdb
