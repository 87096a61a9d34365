// Multi-class (cross-partition) update transactions: head-of-all-queues
// gating, CC10 reordering in one covered queue while heading another,
// abort/undo across all covered partitions, atomic commit across queues,
// QueryEngine snapshot bounds over multi-domain commits, and end-to-end
// cluster runs (OTP + conservative) under the 1-copy-serializability checker.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/channels.h"
#include "baseline/conservative_replica.h"
#include "baseline/lazy_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "core/otp_replica.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

/// Broadcast endpoint whose deliveries are injected by the test.
class ManualAbcast final : public AtomicBroadcast {
 public:
  explicit ManualAbcast(SiteId self) : self_(self) {}

  MsgId broadcast(PayloadPtr payload) override {
    const MsgId id{self_, next_seq_++};
    sent_.emplace_back(id, std::move(payload));
    return id;
  }
  void set_callbacks(AbcastCallbacks callbacks) override { callbacks_ = std::move(callbacks); }
  SiteId site() const override { return self_; }
  const AbcastStats& stats() const override { return stats_; }

  void opt(const MsgId& id, PayloadPtr payload) {
    callbacks_.opt_deliver(Message{id, id.sender, kChannelData, std::move(payload)});
  }
  void to(const MsgId& id) { callbacks_.to_deliver(id, next_index_++); }

  const std::vector<std::pair<MsgId, PayloadPtr>>& sent() const { return sent_; }

 private:
  std::vector<std::pair<MsgId, PayloadPtr>> sent_;
  SiteId self_;
  std::uint64_t next_seq_ = 0;
  TOIndex next_index_ = 1;
  AbcastCallbacks callbacks_;
  AbcastStats stats_;
};

/// One site under test with a cross-class increment procedure: ints =
/// [delta, object...] with absolute object ids (rmw_cross convention).
struct Site {
  explicit Site(std::size_t n_classes, SiteId id = 0) : catalog(n_classes, 16), abcast(id) {
    proc = register_rmw_cross_procedure(registry);
    replica = std::make_unique<OtpReplica>(sim, abcast, storage, catalog, registry, id,
                                           OtpReplicaConfig{.paranoid_checks = true});
    replica->set_commit_hook([this](const CommitRecord& r) { commits.push_back(r); });
  }

  /// Multi-class request writing object 0 of each covered class.
  PayloadPtr make_request(std::vector<ClassId> classes, std::int64_t delta, SimTime exec) {
    auto request = std::make_shared<TxnRequest>();
    request->proc = proc;
    request->klass = classes.front();
    if (classes.size() > 1) request->classes = classes;
    request->args.ints.push_back(delta);
    for (ClassId c : classes) {
      request->args.ints.push_back(static_cast<std::int64_t>(catalog.object(c, 0)));
    }
    request->origin = 0;
    request->submitted_at = sim.now();
    request->exec_duration = exec;
    return request;
  }

  std::int64_t value(ClassId klass) const {
    const auto v = store.read_latest(catalog.object(klass, 0));
    return v ? as_int(*v) : 0;
  }

  Simulator sim;
  PartitionCatalog catalog;
  MemoryBackend storage{0};
  VersionedStore& store = storage.memory();
  ProcedureRegistry registry;
  ManualAbcast abcast;
  ProcId proc = 0;
  std::unique_ptr<OtpReplica> replica;
  std::vector<CommitRecord> commits;
};

MsgId id_of(std::uint64_t seq) { return MsgId{0, seq}; }

// ---------------------------------------------------------------------------
// Head-of-all-queues gating.
// ---------------------------------------------------------------------------

TEST(MultiClass, EnqueuedIntoEveryCoveredQueue) {
  Site site(3);
  site.abcast.opt(id_of(1), site.make_request({0, 2}, 1, 5 * kMillisecond));
  EXPECT_EQ(site.replica->class_queue(0).size(), 1u);
  EXPECT_EQ(site.replica->class_queue(1).size(), 0u);
  EXPECT_EQ(site.replica->class_queue(2).size(), 1u);
  EXPECT_TRUE(site.replica->class_queue(0).head()->running)
      << "alone in both queues: starts immediately";
  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 1u);
  ASSERT_EQ(site.commits[0].classes, (std::vector<ClassId>{0, 2}));
  EXPECT_EQ(site.value(0), 1);
  EXPECT_EQ(site.value(2), 1);
  EXPECT_TRUE(site.replica->class_queue(0).empty());
  EXPECT_TRUE(site.replica->class_queue(2).empty());
  EXPECT_EQ(site.replica->in_flight(), 0u);
}

TEST(MultiClass, WaitsUntilHeadOfAllQueues) {
  Site site(2);
  // T1 occupies class 0; the multi-class T2 {0,1} must wait for it even
  // though it heads class 1 from the start.
  site.abcast.opt(id_of(1), site.make_request({0}, 1, 5 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request({0, 1}, 10, 5 * kMillisecond));
  EXPECT_TRUE(site.replica->class_queue(0).head()->running);
  EXPECT_EQ(site.replica->class_queue(1).head()->id, id_of(2));
  EXPECT_FALSE(site.replica->class_queue(1).head()->running)
      << "heads class 1 but not class 0: must not start";
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].txn, id_of(1));
  EXPECT_EQ(site.commits[1].txn, id_of(2));
  EXPECT_EQ(site.value(0), 11);
  EXPECT_EQ(site.value(1), 10);
  // The wait is serialized: T2's commit is at least one execution after T1's.
  EXPECT_GE(site.commits[1].at - site.commits[0].at, 5 * kMillisecond);
}

TEST(MultiClass, SingleClassTrafficInOtherClassesUnaffected) {
  Site site(3);
  // A multi-class {0,1} transaction must not serialize class 2.
  site.abcast.opt(id_of(1), site.make_request({0, 1}, 1, 10 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request({2}, 7, 10 * kMillisecond));
  EXPECT_TRUE(site.replica->class_queue(2).head()->running);
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].at, site.commits[1].at) << "full overlap across disjoint classes";
}

// ---------------------------------------------------------------------------
// Correctness check: CC10 reorder in one covered queue while heading another,
// and CC8 undo across all covered partitions.
// ---------------------------------------------------------------------------

TEST(MultiClass, ReorderInOneQueueWhileHeadOfAnother) {
  Site site(2);
  // Tentative: T1 {0,1}, T2 {0}. Definitive: T2 before T1. At TO(T2) the
  // multi-class T1 heads both queues and has executed; it must be undone in
  // *both* partitions, T2 slots ahead in class 0, and T1 re-executes after.
  site.abcast.opt(id_of(1), site.make_request({0, 1}, 1, 1 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request({0}, 10, 1 * kMillisecond));
  site.sim.run();  // T1 executes optimistically; its provisional writes exist
  EXPECT_EQ(site.replica->class_queue(0).head()->exec, ExecState::executed);

  site.abcast.to(id_of(2));  // wrongly ordered: T1 aborted, T2 to the head
  EXPECT_EQ(site.replica->metrics().aborts, 1u);
  EXPECT_EQ(site.replica->class_queue(0).head()->id, id_of(2));
  // T1's provisional effects are gone from both covered partitions.
  EXPECT_FALSE(site.store.read_latest(site.catalog.object(0, 0)).has_value());
  EXPECT_FALSE(site.store.read_latest(site.catalog.object(1, 0)).has_value());
  // T1 still heads class 1 (nothing reordered there) but may not run: it no
  // longer heads class 0.
  EXPECT_EQ(site.replica->class_queue(1).head()->id, id_of(1));
  EXPECT_FALSE(site.replica->class_queue(1).head()->running);

  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].txn, id_of(2));
  EXPECT_EQ(site.commits[1].txn, id_of(1));
  EXPECT_EQ(site.value(0), 11);
  EXPECT_EQ(site.value(1), 1);
  EXPECT_EQ(site.replica->metrics().reexecutions, 1u) << "T1 executed twice";
}

TEST(MultiClass, CommittablePrefixBlocksLaterArrival) {
  Site site(2);
  // T1 {0} long-running, TO-delivered first (committable head). T2 {0,1}
  // TO-delivered next while T1 still runs: T2 reorders behind the committable
  // prefix of class 0, commits only after T1.
  site.abcast.opt(id_of(1), site.make_request({0}, 1, 20 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request({0, 1}, 10, 1 * kMillisecond));
  site.sim.run_until(kMillisecond);
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  EXPECT_EQ(site.replica->class_queue(0).head()->id, id_of(1));
  EXPECT_TRUE(site.replica->class_queue(0).head()->running);
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].txn, id_of(1));
  EXPECT_EQ(site.commits[1].txn, id_of(2));
  EXPECT_EQ(site.value(0), 11);
  EXPECT_EQ(site.value(1), 10);
  EXPECT_EQ(site.replica->metrics().aborts, 0u) << "committable head is never undone";
}

TEST(MultiClass, AbortUndoesAllCoveredPartitions) {
  Site site(3);
  // Executed multi-class T1 {0,1,2} is wrongly ordered against T2 {1}: the
  // undo must roll back the provisional versions of all three partitions.
  site.abcast.opt(id_of(1), site.make_request({0, 1, 2}, 5, 1 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request({1}, 100, 1 * kMillisecond));
  site.sim.run();
  site.abcast.to(id_of(2));  // T1 wrongly ordered in class 1
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_FALSE(site.store.read_latest(site.catalog.object(c, 0)).has_value())
        << "partition " << c << " must show no trace of the undone execution";
  }
  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.value(0), 5);
  EXPECT_EQ(site.value(1), 105);
  EXPECT_EQ(site.value(2), 5);
}

// ---------------------------------------------------------------------------
// Two-site convergence with a tentative/definitive mismatch on a chain of
// overlapping multi-class transactions.
// ---------------------------------------------------------------------------

TEST(MultiClass, TwoSitesConvergeUnderMismatchedTentativeOrder) {
  Site n(3, 0), np(3, 0);
  std::vector<PayloadPtr> req = {nullptr,
                                 n.make_request({0, 1}, 1, 5 * kMillisecond),
                                 n.make_request({1, 2}, 10, 5 * kMillisecond),
                                 n.make_request({0, 2}, 100, 5 * kMillisecond)};
  for (std::uint64_t t : {1u, 2u, 3u}) n.abcast.opt(id_of(t), req[t]);
  for (std::uint64_t t : {3u, 1u, 2u}) np.abcast.opt(id_of(t), req[t]);  // mismatched
  n.sim.run_until(kMillisecond);
  np.sim.run_until(kMillisecond);
  for (std::uint64_t t : {1u, 2u, 3u}) {
    n.abcast.to(id_of(t));
    np.abcast.to(id_of(t));
  }
  n.sim.run();
  np.sim.run();
  ASSERT_EQ(n.commits.size(), 3u);
  ASSERT_EQ(np.commits.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(n.commits[i].txn, np.commits[i].txn) << "position " << i;
  }
  for (ClassId c = 0; c < 3; ++c) EXPECT_EQ(n.value(c), np.value(c)) << "class " << c;
  EXPECT_GE(np.replica->metrics().aborts, 1u) << "the mismatch costs at least one undo";
  // Cross-checked by the serializability checker over both logs.
  const CheckResult check = check_one_copy_serializability({n.commits, np.commits});
  EXPECT_TRUE(check.ok()) << check.summary();
}

// ---------------------------------------------------------------------------
// QueryEngine snapshot bounds over multi-domain commits.
// ---------------------------------------------------------------------------

TEST(MultiClass, QuerySeesAllOrNothingOfAMultiClassCommit) {
  Site site(2);
  // A long-running multi-class update is TO-delivered, then a snapshot query
  // spanning both covered classes starts: its snapshot includes the update's
  // index, so it must wait for the commit and then observe *both* writes.
  site.abcast.opt(id_of(1), site.make_request({0, 1}, 4, 10 * kMillisecond));
  site.abcast.to(id_of(1));
  std::vector<QueryReport> reports;
  std::vector<std::int64_t> seen;
  site.replica->submit_query(
      [&site, &seen](QueryContext& ctx) {
        seen.clear();
        seen.push_back(ctx.read_int(site.catalog.object(0, 0)));
        seen.push_back(ctx.read_int(site.catalog.object(1, 0)));
      },
      kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  site.sim.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].attempts, 2u) << "the in-flight commit must stall the query";
  EXPECT_EQ(seen, (std::vector<std::int64_t>{4, 4}))
      << "a snapshot covering the commit index observes every covered partition";
  EXPECT_EQ(site.replica->metrics().query_retries, reports[0].attempts - 1);
}

TEST(MultiClass, EarlierSnapshotExcludesTheMultiClassCommit) {
  Site site(2);
  // Query submitted before the TO-delivery: snapshot 0 in both domains.
  site.abcast.opt(id_of(1), site.make_request({0, 1}, 4, 10 * kMillisecond));
  std::vector<std::int64_t> seen;
  std::vector<QueryReport> reports;
  site.replica->submit_query(
      [&site, &seen](QueryContext& ctx) {
        seen.push_back(ctx.read_int(site.catalog.object(0, 0)));
        seen.push_back(ctx.read_int(site.catalog.object(1, 0)));
      },
      50 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  site.abcast.to(id_of(1));
  site.sim.run();  // commit lands before the query's execution finishes
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].snapshot_index, 0u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 0}))
      << "snapshot 0 predates the commit in every covered domain";
}

// ---------------------------------------------------------------------------
// End-to-end cluster runs: generated cross-class workload, both engines,
// checker + final-state convergence; TPC-C remote mix per the acceptance bar.
// ---------------------------------------------------------------------------

std::vector<const VersionedStore*> all_stores(Cluster& cluster) {
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  return stores;
}

void run_cross_class_workload(Cluster& cluster, double fraction, std::uint64_t seed) {
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 90;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.duration = 1500 * kMillisecond;
  wl.cross_class_fraction = fraction;
  wl.cross_class_span = 2;
  wl.query_fraction = 0.1;
  WorkloadDriver driver(cluster, wl, seed);
  driver.start();
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(120 * kSecond));
  EXPECT_GT(driver.cross_class_submitted(), 0u);
  const CheckResult check = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(check.ok()) << check.summary();
  const CheckResult convergence = compare_final_states(all_stores(cluster), cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
}

TEST(MultiClassCluster, OtpCrossClassWorkloadStaysSerializable) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  config.objects_per_class = 16;
  config.seed = 11;
  Cluster cluster(config);
  run_cross_class_workload(cluster, 0.3, 21);
}

TEST(MultiClassCluster, ConservativeCrossClassWorkloadStaysSerializable) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  config.objects_per_class = 16;
  config.seed = 12;
  Cluster cluster(config, [](const ReplicaDeps& d) {
    return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                 d.registry, d.site);
  });
  run_cross_class_workload(cluster, 0.3, 22);
}

void run_tpcc_remote(Cluster& cluster, std::uint64_t seed) {
  HistoryRecorder recorder(cluster);
  tpcc::Layout layout;
  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 90;
  mix.duration = 1500 * kMillisecond;
  mix.warehouse_skew_theta = 0.4;
  mix.remote_txn_fraction = 0.1;
  tpcc::TpccDriver driver(cluster, layout, mix, seed);
  driver.start();
  cluster.run_for(mix.duration);
  ASSERT_TRUE(cluster.quiesce(120 * kSecond));
  EXPECT_GT(driver.stats().remote_new_orders + driver.stats().remote_payments, 0u);
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const auto violations = driver.audit(s);
    EXPECT_TRUE(violations.empty())
        << "site " << s << ": " << (violations.empty() ? "" : violations.front());
  }
  const CheckResult check = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(check.ok()) << check.summary();
  const CheckResult convergence = compare_final_states(all_stores(cluster), cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
}

TEST(MultiClassCluster, TpccRemoteMixOnOtpEngine) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;  // warehouses
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 31;
  Cluster cluster(config);
  run_tpcc_remote(cluster, 41);
}

TEST(MultiClassCluster, TpccRemoteMixOnConservativeEngine) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 32;
  Cluster cluster(config, [](const ReplicaDeps& d) {
    return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                 d.registry, d.site);
  });
  run_tpcc_remote(cluster, 42);
}

// ---------------------------------------------------------------------------
// Engines without a cross-partition model must say so, not corrupt state.
// ---------------------------------------------------------------------------

TEST(MultiClassDeath, LazyEngineRejectsMultiClassSubmission) {
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 4;
  config.objects_per_class = 8;
  Cluster cluster(config, [](const ReplicaDeps& d) {
    return std::make_unique<LazyReplica>(d.sim, d.net, d.storage, d.catalog, d.registry, d.site);
  });
  const ProcId rmw_cross = register_rmw_cross_procedure(cluster.procedures());
  // Single-element sets route through normally...
  cluster.replica(0).submit_update_multi(
      rmw_cross, {1}, TxnArgs{{1, static_cast<std::int64_t>(cluster.catalog().object(1, 0))}},
      kMillisecond);
  // ...genuine multi-class sets are rejected loudly.
  EXPECT_DEATH(cluster.replica(0).submit_update_multi(
                   rmw_cross, {0, 1}, TxnArgs{{1, 0}}, kMillisecond),
               "cannot atomically commit");
}

}  // namespace
}  // namespace otpdb
