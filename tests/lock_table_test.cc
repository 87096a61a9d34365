// Tests for the fine-granularity lock-table OTP engine (paper Section 6 /
// [13]): object-level queues, hold-all-locks execution, the generalized
// correctness check, concurrency gains over the class model, and
// object-level 1-copy-serializability, across a cold restart too.
#include <gtest/gtest.h>

#include <memory>

#include "abcast/abcast.h"
#include "abcast/channels.h"
#include "abcast/opt_abcast.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "core/lock_table_replica.h"
#include "db/durable_store.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

// --- Manual-broadcast unit fixture ------------------------------------------

class ManualAbcast final : public AtomicBroadcast {
 public:
  MsgId broadcast(PayloadPtr payload) override {
    const MsgId id{0, next_seq_++};
    sent_.emplace_back(id, std::move(payload));
    return id;
  }
  void set_callbacks(AbcastCallbacks callbacks) override { callbacks_ = std::move(callbacks); }
  SiteId site() const override { return 0; }
  const AbcastStats& stats() const override { return stats_; }

  void opt(const MsgId& id, PayloadPtr payload) {
    callbacks_.opt_deliver(Message{id, id.sender, kChannelData, std::move(payload)});
  }
  void to(const MsgId& id) { callbacks_.to_deliver(id, next_index_++); }

 private:
  std::vector<std::pair<MsgId, PayloadPtr>> sent_;
  std::uint64_t next_seq_ = 0;
  TOIndex next_index_ = 1;
  AbcastCallbacks callbacks_;
  AbcastStats stats_;
};

struct LockSite {
  LockSite() : catalog(2, 16) {
    proc = registry.add("incr_all", [](TxnContext& ctx) {
      // Increment every declared object by args.ints[0].
      for (std::size_t i = 1; i < ctx.args().ints.size(); ++i) {
        // args.ints[i] is a raw ObjectId here (unit tests pass ids directly).
        const ObjectId obj = static_cast<ObjectId>(ctx.args().ints[i]);
        ctx.write(obj, ctx.read_int(obj) + ctx.args().ints[0]);
      }
    });
    replica = std::make_unique<LockTableReplica>(
        sim, abcast, storage, catalog, registry, 0,
        [](ClassId, const TxnArgs& args) {
          std::vector<ObjectId> objects;
          for (std::size_t i = 1; i < args.ints.size(); ++i) {
            objects.push_back(static_cast<ObjectId>(args.ints[i]));
          }
          return objects;
        });
    replica->set_commit_hook([this](const CommitRecord& r) { commits.push_back(r); });
  }

  PayloadPtr request(std::vector<ObjectId> objects, SimTime exec, std::int64_t delta = 1) {
    auto req = std::make_shared<TxnRequest>();
    req->proc = proc;
    req->klass = 0;
    req->args.ints.push_back(delta);
    for (ObjectId o : objects) req->args.ints.push_back(static_cast<std::int64_t>(o));
    req->origin = 0;
    req->exec_duration = exec;
    req->access_set = std::move(objects);
    return req;
  }

  Simulator sim;
  PartitionCatalog catalog;
  MemoryBackend storage{0};
  VersionedStore& store = storage.memory();
  ProcedureRegistry registry;
  ManualAbcast abcast;
  ProcId proc = 0;
  std::unique_ptr<LockTableReplica> replica;
  std::vector<CommitRecord> commits;
};

MsgId id_of(std::uint64_t seq) { return MsgId{0, seq}; }

TEST(LockTable, DisjointObjectsSameClassRunConcurrently) {
  // The whole point of fine granularity: same conflict class, disjoint
  // objects -> parallel execution (the class-queue engine would serialize).
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1}, 5 * kMillisecond));
  site.abcast.opt(id_of(2), site.request({2}, 5 * kMillisecond));
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].at, site.commits[1].at) << "disjoint txns must overlap fully";
}

TEST(LockTable, SharedObjectSerializes) {
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1, 2}, 5 * kMillisecond));
  site.abcast.opt(id_of(2), site.request({2, 3}, 5 * kMillisecond));
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_GE(site.commits[1].at - site.commits[0].at, 5 * kMillisecond)
      << "transactions sharing object 2 must serialize";
  EXPECT_EQ(as_int(*site.store.read_latest(2)), 2) << "both increments applied";
}

TEST(LockTable, HoldAllLocksBeforeExecuting) {
  // T2 = {x,y} must wait for both T1 = {x} and T3 = {y}.
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1}, 10 * kMillisecond));
  site.abcast.opt(id_of(2), site.request({1, 2}, 1 * kMillisecond));
  site.abcast.opt(id_of(3), site.request({2}, 2 * kMillisecond));
  // Tentative order T1, T2, T3: T3 is behind T2 in object 2's queue.
  EXPECT_EQ(site.replica->queue_length(1), 2u);
  EXPECT_EQ(site.replica->queue_length(2), 2u);
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.abcast.to(id_of(3));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 3u);
  EXPECT_EQ(site.commits[0].txn, id_of(1));
  EXPECT_EQ(site.commits[1].txn, id_of(2));
  EXPECT_EQ(site.commits[2].txn, id_of(3));
  // T2 could only start after T1 committed at 10ms.
  EXPECT_GE(site.commits[1].at, 11 * kMillisecond);
}

TEST(LockTable, WrongTentativeOrderAbortsAndRedoes) {
  // Tentative T1 before T2 on a shared object, definitive order reversed.
  LockSite site;
  site.abcast.opt(id_of(1), site.request({5}, 10 * kMillisecond, 10));
  site.abcast.opt(id_of(2), site.request({5}, 10 * kMillisecond, 100));
  site.sim.run_until(2 * kMillisecond);  // T1 executing optimistically
  site.abcast.to(id_of(2));              // definitive: T2 first
  EXPECT_EQ(site.replica->metrics().aborts, 1u) << "T1's optimistic run must be undone";
  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].txn, id_of(2));
  EXPECT_EQ(site.commits[1].txn, id_of(1));
  EXPECT_EQ(as_int(*site.store.read_latest(5)), 110);
  EXPECT_EQ(site.replica->metrics().reexecutions, 1u);
  // T2 moved ahead of T1 once; T1 then stayed behind the committable T2.
  EXPECT_EQ(site.replica->metrics().mismatch_reorders, 1u);
}

TEST(LockTable, InOrderDeliveryCountsNoReorder) {
  // CC10 counts a reorder only when the TO-delivered transaction changes
  // position. A transaction Opt- and TO-delivered before its execution
  // finishes heads its queues throughout, so nothing moved.
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1, 2}, 10 * kMillisecond));
  site.sim.run_until(2 * kMillisecond);  // executing optimistically
  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 1u);
  EXPECT_EQ(site.replica->metrics().aborts, 0u);
  EXPECT_EQ(site.replica->metrics().mismatch_reorders, 0u);
}

TEST(LockTable, PartialOverlapAbortsOnlyConflicting) {
  // T1={1}, T2={2}: a reversed definitive order costs nothing (no conflict).
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1}, 10 * kMillisecond));
  site.abcast.opt(id_of(2), site.request({2}, 10 * kMillisecond));
  site.sim.run_until(1 * kMillisecond);
  site.abcast.to(id_of(2));
  site.abcast.to(id_of(1));
  site.sim.run();
  EXPECT_EQ(site.replica->metrics().aborts, 0u);
  EXPECT_EQ(site.commits.size(), 2u);
}

TEST(LockTable, UndeclaredAccessDies) {
  LockSite site;
  auto req = site.request({1}, kMillisecond);
  // Tamper: procedure will touch object 2, which is not declared.
  auto bad = std::make_shared<TxnRequest>(*std::static_pointer_cast<const TxnRequest>(req));
  bad->args.ints.push_back(2);  // proc iterates args -> touches object 2
  // Execution starts right at Opt-delivery; the scope check fires there.
  EXPECT_DEATH(site.abcast.opt(id_of(1), bad), "undeclared object");
}

TEST(LockTable, DuplicateDeclaredObjectDies) {
  LockSite site;
  EXPECT_DEATH(site.abcast.opt(id_of(1), site.request({3, 3}, kMillisecond)),
               "declares an object twice");
}

TEST(LockTable, ChainedWaitsResolveInDefinitiveOrder) {
  // Chain: T1={a,b}, T2={b,c}, T3={c,d} with reversed definitive order.
  LockSite site;
  site.abcast.opt(id_of(1), site.request({1, 2}, 3 * kMillisecond));
  site.abcast.opt(id_of(2), site.request({2, 3}, 3 * kMillisecond));
  site.abcast.opt(id_of(3), site.request({3, 4}, 3 * kMillisecond));
  site.sim.run_until(kMillisecond);
  site.abcast.to(id_of(3));
  site.abcast.to(id_of(2));
  site.abcast.to(id_of(1));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 3u);
  EXPECT_EQ(site.commits[0].txn, id_of(3));
  EXPECT_EQ(site.commits[1].txn, id_of(2));
  EXPECT_EQ(site.commits[2].txn, id_of(1));
  for (ObjectId obj : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(as_int(*site.store.read_latest(obj)), obj == 1 || obj == 4 ? 1 : 2);
  }
}

// --- Full-cluster integration ------------------------------------------------

ReplicaFactory lock_table_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<LockTableReplica>(d.sim, d.abcast, d.storage, d.catalog, d.registry,
                                              d.site, rmw_access_extractor(d.catalog));
  };
}

TEST(LockTableCluster, ObjectLevelSerializableUnderLoad) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 2;  // few classes: the class engine would choke
    config.objects_per_class = 32;
    config.seed = seed;
    config.net.hiccup_prob = 0.15;
    config.net.hiccup_mean = 2 * kMillisecond;
    Cluster cluster(config, lock_table_factory());
    HistoryRecorder recorder(cluster);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 120;
    wl.mean_exec_time = 2 * kMillisecond;
    wl.ops_per_txn = 3;
    wl.duration = 1 * kSecond;
    WorkloadDriver driver(cluster, wl, seed);
    driver.start();
    cluster.run_for(wl.duration);
    ASSERT_TRUE(cluster.quiesce(120 * kSecond)) << "seed " << seed;

    for (SiteId s = 0; s < cluster.site_count(); ++s) {
      EXPECT_EQ(cluster.replica(s).metrics().committed, driver.updates_submitted())
          << "site " << s << " seed " << seed;
    }
    const CheckResult check = check_object_level_serializability(recorder.site_logs());
    EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << check.summary();

    std::vector<const VersionedStore*> stores;
    for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
    const CheckResult convergence = compare_final_states(stores, cluster.catalog());
    EXPECT_TRUE(convergence.ok()) << convergence.summary();
  }
}

TEST(LockTableCluster, ColdRestartUnderLoadConverges) {
  // Site 2 loses its RAM under load and rebuilds from its own checkpoint +
  // WAL: the store comes back as the committed state at its durable floor,
  // every object's query domain restarts there, and catch-up re-executes
  // everything above it. The histories stay object-level serializable (the
  // restarted site's log repeats what it re-executed) and the stores agree.
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 2;
  config.objects_per_class = 32;
  config.seed = 14;
  config.storage.backend = StorageBackendKind::durable;
  config.storage.checkpoint_interval = 100 * kMillisecond;
  Cluster cluster(config, lock_table_factory());
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 120;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.ops_per_txn = 3;
  wl.duration = 1200 * kMillisecond;
  WorkloadDriver driver(cluster, wl, 14);
  driver.start();
  TOIndex recovered = 0;
  cluster.sim().schedule_at(450 * kMillisecond, [&] { cluster.crash_site(2); });
  cluster.sim().schedule_at(650 * kMillisecond,
                            [&] { recovered = cluster.restart_site_from_disk(2); });
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(120 * kSecond));
  cluster.run_for(kSecond);

  EXPECT_GT(recovered, 0u) << "checkpoints must have advanced the floor";
  EXPECT_EQ(cluster.wal_stats(2)->checkpoint_restores, 1u);
  EXPECT_GT(dynamic_cast<OptAbcast&>(cluster.abcast(2)).stats().recovery_tombstones, 0u);
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    EXPECT_EQ(cluster.replica(s).in_flight(), 0u) << "site " << s;
  }
  const auto logs = last_commit_per_index(recorder.site_logs());
  EXPECT_LT(logs[2].size(), recorder.site_logs()[2].size())
      << "commits above the durable floor are re-executed after the restart";
  const CheckResult check = check_object_level_serializability(logs);
  EXPECT_TRUE(check.ok()) << check.summary();
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
}

TEST(LockTableCluster, OutperformsClassQueuesOnHotClasses) {
  // One conflict class, many objects: the class engine serializes everything;
  // the lock-table engine only serializes true object conflicts.
  auto throughput = [](bool fine_grained) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 1;
    config.objects_per_class = 64;
    config.seed = 99;
    auto cluster = fine_grained
                       ? std::make_unique<Cluster>(config, lock_table_factory())
                       : std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 150;
    wl.mean_exec_time = 4 * kMillisecond;  // >> 1/rate: the hot class saturates
    wl.ops_per_txn = 2;
    wl.duration = 1 * kSecond;
    WorkloadDriver driver(*cluster, wl, 7);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(120 * kSecond);
    OnlineStats latency;
    for (SiteId s = 0; s < 4; ++s) {
      latency.merge(cluster->replica(s).metrics().commit_latency_ns);
    }
    return latency.mean();
  };
  const double coarse_latency = throughput(false);
  const double fine_latency = throughput(true);
  EXPECT_LT(fine_latency, coarse_latency / 2)
      << "object-level locking must beat a saturated class queue clearly";
}

TEST(LockTableCluster, SnapshotQueriesSeeExactPrefixes) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  config.objects_per_class = 8;
  config.seed = 42;
  Cluster cluster(config, lock_table_factory());
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 100;
  wl.mean_exec_time = 3 * kMillisecond;
  wl.duration = 600 * kMillisecond;
  WorkloadDriver driver(cluster, wl, 5);
  driver.start();

  std::vector<QueryReport> reports;
  const std::vector<ObjectId> targets = {cluster.catalog().object(0, 0),
                                         cluster.catalog().object(1, 3)};
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(i * 50 * kMillisecond, [&cluster, &targets, &reports] {
      cluster.replica(1).submit_query(
          [targets](QueryContext& ctx) {
            for (ObjectId obj : targets) (void)ctx.read(obj);
          },
          kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
    });
  }
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  ASSERT_EQ(reports.size(), 10u);

  const auto& log = recorder.site_logs()[1];
  for (const QueryReport& report : reports) {
    std::map<ObjectId, std::int64_t> expected;
    for (const auto& r : log) {
      if (r.index > report.snapshot_index) continue;
      for (const auto& [obj, value] : r.writes) expected[obj] = as_int(value);
    }
    for (const auto& [obj, value] : report.reads) {
      const auto it = expected.find(obj);
      EXPECT_EQ(as_int(value), it == expected.end() ? 0 : it->second)
          << "snapshot " << report.snapshot_index << " object " << obj;
    }
  }
}

}  // namespace
}  // namespace otpdb
