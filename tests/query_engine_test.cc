// Direct unit tests for the snapshot-query engine (paper Section 5).
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/query_engine.h"
#include "db/partition.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"

namespace otpdb {
namespace {

struct Fixture {
  Fixture() : catalog(2, 8), engine(sim, store, catalog, metrics) {}

  /// Commits value to obj with the given definitive index, with full engine
  /// notification (as a replica would).
  void commit(ObjectId obj, TOIndex index, std::int64_t value) {
    const TxnId txn = 0;  // scratch dense id; released by the commit below
    store.write(txn, obj, Value{value});
    store.commit(txn, index);
    engine.note_to_delivered(catalog.class_of(obj), index);
    engine.note_committed(catalog.class_of(obj), index);
    engine.finish_commit(index);
  }

  Simulator sim;
  PartitionCatalog catalog;
  VersionedStore store;
  ReplicaMetrics metrics;
  QueryEngine engine;
};

TEST(QueryEngine, SnapshotBoundTracksClassHistory) {
  Fixture f;
  EXPECT_EQ(f.engine.snapshot_bound(0, 100), 0u);
  f.commit(f.catalog.object(0, 0), 3, 30);
  f.commit(f.catalog.object(1, 0), 5, 50);  // class 1
  f.commit(f.catalog.object(0, 1), 8, 80);
  EXPECT_EQ(f.engine.snapshot_bound(0, 2), 0u);
  EXPECT_EQ(f.engine.snapshot_bound(0, 3), 3u);
  EXPECT_EQ(f.engine.snapshot_bound(0, 7), 3u);
  EXPECT_EQ(f.engine.snapshot_bound(0, 8), 8u);
  EXPECT_EQ(f.engine.snapshot_bound(1, 8), 5u);
  EXPECT_EQ(f.engine.last_to_index(), 8u);
}

TEST(QueryEngine, QueryReadsAtItsSnapshot) {
  Fixture f;
  f.commit(f.catalog.object(0, 0), 1, 10);
  std::int64_t seen = -1;
  f.engine.submit(
      [&](QueryContext& ctx) { seen = ctx.read_int(f.catalog.object(0, 0)); },
      kMillisecond, nullptr);
  // A commit after submission is invisible (snapshot fixed at start).
  f.commit(f.catalog.object(0, 0), 2, 20);
  f.sim.run();
  EXPECT_EQ(seen, 10);
  EXPECT_EQ(f.metrics.queries_done, 1u);
  EXPECT_EQ(f.metrics.query_retries, 0u);
}

TEST(QueryEngine, QueryWaitsForInFlightCommit) {
  Fixture f;
  const ObjectId obj = f.catalog.object(0, 0);
  // TO-delivered but not yet committed: snapshot bound points at index 4.
  f.engine.note_to_delivered(0, 4);
  std::int64_t seen = -1;
  f.engine.submit([&](QueryContext& ctx) { seen = ctx.read_int(obj); }, kMillisecond, nullptr);
  f.sim.run();
  EXPECT_EQ(seen, -1) << "query must block while index 4 is in flight";
  EXPECT_EQ(f.metrics.queries_done, 0u);
  // Commit lands -> query re-runs and sees it.
  const TxnId txn = 0;
  f.store.write(txn, obj, Value{std::int64_t{44}});
  f.store.commit(txn, 4);
  f.engine.note_committed(0, 4);
  f.engine.finish_commit(4);
  f.sim.run();
  EXPECT_EQ(seen, 44);
  EXPECT_EQ(f.metrics.query_retries, 1u);
}

TEST(QueryEngine, ReportCarriesReadsAndAttempts) {
  Fixture f;
  f.commit(f.catalog.object(0, 2), 1, 5);
  QueryReport report;
  f.engine.submit(
      [&](QueryContext& ctx) {
        (void)ctx.read(f.catalog.object(0, 2));
        (void)ctx.read(f.catalog.object(1, 2));
      },
      2 * kMillisecond, [&](const QueryReport& r) { report = r; });
  f.sim.run();
  EXPECT_EQ(report.snapshot_index, 1u);
  EXPECT_EQ(report.attempts, 1u);
  ASSERT_EQ(report.reads.size(), 2u);
  EXPECT_EQ(as_int(report.reads[0].second), 5);
  EXPECT_EQ(as_int(report.reads[1].second), 0);
  EXPECT_GE(report.completed_at - report.submitted_at, 2 * kMillisecond);
}

TEST(QueryEngine, ResetVolatileKeepsWatermarks) {
  Fixture f;
  f.commit(f.catalog.object(0, 0), 7, 70);
  EXPECT_EQ(f.engine.last_committed(0), 7u);
  f.engine.reset_volatile();
  EXPECT_EQ(f.engine.last_to_index(), 0u);
  EXPECT_EQ(f.engine.last_committed(0), 7u) << "durable watermark survives";
  EXPECT_EQ(f.engine.snapshot_bound(0, 100), 0u) << "history is volatile";
}

TEST(QueryEngine, CommittedFloorFollowsTheFinishedPrefix) {
  Fixture f;
  // Indices 2 and 3 (class 1) finish before 1 (class 0): the floor waits.
  f.engine.note_to_delivered(0, 1);
  f.engine.note_to_delivered(1, 2);
  f.engine.note_to_delivered(1, 3);
  f.engine.note_committed(1, 2);
  f.engine.finish_commit(2);
  f.engine.note_committed(1, 3);
  f.engine.finish_commit(3);
  EXPECT_EQ(f.engine.committed_floor(), 0u);
  EXPECT_EQ(f.engine.gc_horizon(), 1u);
  f.engine.note_committed(0, 1);
  f.engine.finish_commit(1);
  EXPECT_EQ(f.engine.committed_floor(), 3u);
  EXPECT_EQ(f.engine.gc_horizon(), 4u);

  // A live query pins its snapshot below a rising floor.
  f.engine.submit([](QueryContext&) {}, kMillisecond, nullptr);
  f.engine.note_to_delivered(1, 4);
  f.engine.note_committed(1, 4);
  f.engine.finish_commit(4);
  EXPECT_EQ(f.engine.committed_floor(), 4u);
  EXPECT_EQ(f.engine.gc_horizon(), 4u) << "the query reads snapshot 3";
  f.sim.run();
  EXPECT_EQ(f.engine.gc_horizon(), 5u);

  // Crash with 5 outstanding and 6 committed: snapshots restart at the
  // floor, not at the highest delivered index.
  f.engine.note_to_delivered(0, 5);
  f.engine.note_to_delivered(1, 6);
  f.engine.note_committed(1, 6);
  f.engine.finish_commit(6);
  f.engine.reset_volatile();
  EXPECT_EQ(f.engine.last_to_index(), 4u);
  EXPECT_EQ(f.engine.snapshot_bound(1, 4), 4u) << "the floor stands in for the history";
  EXPECT_EQ(f.engine.snapshot_bound(0, 4), 1u) << "capped at the domain's watermark";

  // Replay: indices at or below a watermark count as done without a commit.
  for (TOIndex i = 1; i <= 4; ++i) f.engine.note_to_delivered(i == 1 ? 0 : 1, i);
  f.engine.note_to_delivered(0, 5);
  f.engine.note_to_delivered(1, 6);
  EXPECT_EQ(f.engine.committed_floor(), 4u);
  f.engine.note_committed(0, 5);
  f.engine.finish_commit(5);
  EXPECT_EQ(f.engine.committed_floor(), 6u);
}

TEST(QueryEngine, ObjectGranularDomains) {
  // The lock-table engine's configuration: one domain per object.
  Simulator sim;
  PartitionCatalog catalog(1, 4);
  VersionedStore store;
  ReplicaMetrics metrics;
  QueryEngine engine(sim, store, catalog.object_count(),
                     [](ObjectId obj) { return QueryEngine::Domain{obj}; }, metrics);
  const TxnId txn = 0;
  store.write(txn, 2, Value{std::int64_t{9}});
  store.commit(txn, 1);
  engine.advance_to_index(1);
  engine.note_to_delivered(2, 1);
  engine.note_committed(2, 1);
  engine.finish_commit(1);
  EXPECT_EQ(engine.snapshot_bound(2, 5), 1u);
  EXPECT_EQ(engine.snapshot_bound(3, 5), 0u) << "other objects unaffected";

  std::int64_t seen = -1;
  engine.submit([&](QueryContext& ctx) { seen = ctx.read_int(2); }, kMillisecond, nullptr);
  sim.run();
  EXPECT_EQ(seen, 9);
}

TEST(QueryEngine, MultipleWaitersOnSameCommit) {
  Fixture f;
  f.engine.note_to_delivered(0, 1);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    f.engine.submit([&](QueryContext& ctx) { (void)ctx.read(f.catalog.object(0, 0)); },
                    kMillisecond, [&](const QueryReport&) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 0);
  const TxnId txn = 0;
  f.store.write(txn, f.catalog.object(0, 0), Value{std::int64_t{1}});
  f.store.commit(txn, 1);
  f.engine.note_committed(0, 1);
  f.engine.finish_commit(1);
  f.sim.run();
  EXPECT_EQ(done, 3);
}

TEST(QueryEngine, OutOfCatalogReadDies) {
  Fixture f;
  f.engine.submit([&](QueryContext& ctx) { (void)ctx.read(999); }, kMillisecond, nullptr);
  // The class-domain mapper hits the catalog's partition check ("object
  // outside every partition"); object-domain engines hit the engine's own
  // bound check ("outside the catalogued objects").
  EXPECT_DEATH(f.sim.run(), "outside");
}

}  // namespace
}  // namespace otpdb
