// Tests for multi-version garbage collection. Every engine prunes each chain
// it writes at commit, below its QueryEngine's GC horizon (the oldest live
// query snapshot, capped by the committed floor and, on the durable backend,
// by the durable floor): chains stay bounded with no GC call, an idle class
// included, a running query still reads its pinned snapshot, and the sites
// agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "core/lock_table_replica.h"
#include "core/otp_replica.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

TEST(VersionGc, ChainsStayShortWithoutQueries) {
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 2;
  config.objects_per_class = 4;
  config.seed = 1;
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  // 30 updates to the same object: without GC, a 30-version chain.
  for (int i = 0; i < 30; ++i) {
    cluster.sim().schedule_at(i * 5 * kMillisecond, [&cluster, rmw] {
      TxnArgs args;
      args.ints = {1, 0};
      cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    });
  }
  cluster.run_for(500 * kMillisecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));
  for (SiteId s = 0; s < 2; ++s) {
    // The last commit keeps its own version plus the one a snapshot at the
    // committed floor (its predecessor) reads.
    EXPECT_EQ(cluster.store(s).total_versions(), 2u) << "site " << s;
    EXPECT_EQ(as_int(*cluster.store(s).read_latest(cluster.catalog().object(0, 0))), 30);
  }
}

TEST(VersionGc, ActiveQueryPinsItsSnapshot) {
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 1;
  config.objects_per_class = 2;
  config.seed = 2;
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  const auto update_at = [&cluster, rmw](SimTime at) {
    cluster.sim().schedule_at(at, [&cluster, rmw] {
      TxnArgs args;
      args.ints = {1, 0};
      cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    });
  };

  // Phase 1: a few updates commit.
  for (int i = 0; i < 5; ++i) update_at(i * 10 * kMillisecond);
  // Phase 2: at t=100ms a LONG query starts at site 1 (snapshot 5), then
  // more updates commit - and prune - while the query still executes.
  std::vector<QueryReport> reports;
  cluster.sim().schedule_at(100 * kMillisecond, [&cluster, &reports] {
    cluster.replica(1).submit_query(
        [&cluster](QueryContext& ctx) { (void)ctx.read(cluster.catalog().object(0, 0)); },
        500 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  });
  for (int i = 0; i < 5; ++i) update_at(150 * kMillisecond + i * 10 * kMillisecond);
  std::size_t mid_query_versions = 0;
  cluster.sim().schedule_at(300 * kMillisecond, [&cluster, &mid_query_versions] {
    mid_query_versions = cluster.store(1).total_versions();
  });
  // Phase 3: one update after the query answered.
  update_at(700 * kMillisecond);
  cluster.run_for(800 * kMillisecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].snapshot_index, 5u);
  EXPECT_EQ(as_int(reports[0].reads[0].second), 5)
      << "query must still see its pinned snapshot after the commits that pruned";
  EXPECT_EQ(mid_query_versions, 6u) << "the query pins version 5; versions 6-10 follow it";
  // Once it answered, the next commit compacts the chain.
  EXPECT_EQ(cluster.store(1).total_versions(), 2u);
}

TEST(VersionGc, HorizonUnderContinuousLoad) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.objects_per_class = 8;
  config.seed = 3;
  Cluster cluster(config);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 150;
  wl.query_fraction = 0.2;
  wl.duration = kSecond;
  WorkloadDriver driver(cluster, wl, 4);
  driver.start();
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  // Short chains: each holds what its last commit kept - its own version,
  // the one the horizon pinned and the few in between.
  EXPECT_LE(cluster.store(0).total_versions(), 3 * cluster.catalog().object_count());
  // All sites identical.
  for (ClassId c = 0; c < cluster.catalog().class_count(); ++c) {
    for (std::uint64_t k = 0; k < cluster.catalog().objects_per_class(); ++k) {
      const ObjectId obj = cluster.catalog().object(c, k);
      EXPECT_EQ(cluster.store(0).read_latest(obj), cluster.store(1).read_latest(obj));
      EXPECT_EQ(cluster.store(0).read_latest(obj), cluster.store(2).read_latest(obj));
    }
  }
}

ReplicaFactory otp_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<OtpReplica>(d.sim, d.abcast, d.storage, d.catalog, d.registry,
                                        d.site);
  };
}

ReplicaFactory conservative_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                 d.registry, d.site);
  };
}

ReplicaFactory lock_table_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<LockTableReplica>(d.sim, d.abcast, d.storage, d.catalog, d.registry,
                                              d.site, rmw_access_extractor(d.catalog));
  };
}

/// Continuous updates on every class but the last, snapshot queries over all
/// classes (the idle one included), and no GC call: the versions every site
/// holds must plateau near the object count, and every query must read what
/// the committed history says its snapshot holds. On the durable backend the
/// horizon is also capped by the durable floor, which trails the committed
/// floor by the group-commit delay; the idle class holds neither back.
void expect_bounded_chains(ReplicaFactory factory,
                           StorageBackendKind backend = StorageBackendKind::memory) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.objects_per_class = 8;
  config.seed = 9;
  config.storage.backend = backend;
  Cluster cluster(config, std::move(factory));
  const PartitionCatalog& catalog = cluster.catalog();
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), catalog);
  const auto idle = static_cast<ClassId>(catalog.class_count() - 1);
  constexpr SimTime kRun = 3 * kSecond;

  HistoryRecorder recorder(cluster);

  Rng rng(17);
  int n = 0;
  for (SimTime t = 0; t < kRun; t += 2 * kMillisecond, ++n) {
    const auto klass = static_cast<ClassId>(rng.uniform_int(0, idle - 1));
    TxnArgs args;
    args.ints = {1, rng.uniform_int(0, 3), rng.uniform_int(4, 7)};
    const auto site = static_cast<SiteId>(n % cluster.site_count());
    cluster.sim().schedule_at(t, [&cluster, rmw, site, klass, args] {
      cluster.replica(site).submit_update(rmw, klass, args, kMillisecond);
    });
  }
  std::vector<QueryReport> reports;
  const auto read_all = [&catalog](QueryContext& ctx) {
    for (ObjectId obj = 0; obj < catalog.object_count(); ++obj) (void)ctx.read(obj);
  };
  n = 0;
  for (SimTime t = kMillisecond; t < kRun; t += 10 * kMillisecond, ++n) {
    const auto site = static_cast<SiteId>(n % cluster.site_count());
    cluster.sim().schedule_at(t, [&cluster, &reports, read_all, site] {
      cluster.replica(site).submit_query(read_all, 5 * kMillisecond,
                                         [&reports](const QueryReport& r) {
                                           reports.push_back(r);
                                         });
    });
  }
  std::vector<std::size_t> samples;  // most versions any site holds
  for (SimTime t = 100 * kMillisecond; t <= kRun; t += 100 * kMillisecond) {
    cluster.sim().schedule_at(t, [&cluster, &samples] {
      std::size_t most = 0;
      for (SiteId s = 0; s < cluster.site_count(); ++s) {
        most = std::max(most, cluster.store(s).total_versions());
      }
      samples.push_back(most);
    });
  }
  cluster.run_for(kRun);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));

  ASSERT_EQ(samples.size(), 30u);
  const auto half = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  const std::size_t first_max = *std::max_element(samples.begin(), half);
  const std::size_t second_max = *std::max_element(half, samples.end());
  if (backend == StorageBackendKind::memory) {
    EXPECT_LE(second_max, first_max) << "version count must plateau";
  }
  // The durable horizon moves with the flush timing, so its count jitters;
  // it plateaus under the same bound.
  EXPECT_LE(first_max, 2 * catalog.object_count()) << "about two versions per object";
  EXPECT_LE(second_max, 2 * catalog.object_count()) << "about two versions per object";

  // Ground truth: site 0's commit log. Each object reads the newest write at
  // or below the snapshot; never-written objects (the idle class) read as 0.
  const auto& log = recorder.site_logs()[0];
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(n));
  for (const QueryReport& report : reports) {
    ASSERT_EQ(report.reads.size(), catalog.object_count());
    std::map<ObjectId, Value> expected;
    for (const CommitRecord& r : log) {
      if (r.index > report.snapshot_index) continue;
      for (const auto& [obj, value] : r.writes) expected[obj] = value;
    }
    for (const auto& [obj, value] : report.reads) {
      const auto it = expected.find(obj);
      ASSERT_EQ(it == expected.end() ? Value{std::int64_t{0}} : it->second, value)
          << "object " << obj << " at snapshot " << report.snapshot_index;
    }
  }
}

TEST(VersionGc, BoundedChainsOtp) { expect_bounded_chains(otp_factory()); }

TEST(VersionGc, BoundedChainsConservative) { expect_bounded_chains(conservative_factory()); }

TEST(VersionGc, BoundedChainsLockTable) { expect_bounded_chains(lock_table_factory()); }

TEST(VersionGc, BoundedChainsDurableOtp) {
  expect_bounded_chains(otp_factory(), StorageBackendKind::durable);
}

TEST(VersionGc, BoundedChainsDurableLockTable) {
  expect_bounded_chains(lock_table_factory(), StorageBackendKind::durable);
}

}  // namespace
}  // namespace otpdb
