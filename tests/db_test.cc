// Unit tests for the database substrate: versioned store (snapshots, commit,
// undo, pruning), partition catalog, stored procedures and contexts.
#include <gtest/gtest.h>

#include "db/partition.h"
#include "db/procedures.h"
#include "db/value.h"
#include "db/versioned_store.h"

namespace otpdb {
namespace {

constexpr TxnId kTxnA = 0;
constexpr TxnId kTxnB = 1;

TEST(Value, Conversions) {
  EXPECT_EQ(as_int(Value{std::int64_t{42}}), 42);
  EXPECT_EQ(as_int(Value{3.9}), 3);
  EXPECT_DOUBLE_EQ(as_double(Value{std::int64_t{2}}), 2.0);
  EXPECT_EQ(to_display_string(Value{std::int64_t{7}}), "7");
}

TEST(PartitionCatalog, ClassOwnership) {
  PartitionCatalog catalog(4, 10);
  EXPECT_EQ(catalog.class_count(), 4u);
  EXPECT_EQ(catalog.object_count(), 40u);
  EXPECT_EQ(catalog.class_of(0), 0u);
  EXPECT_EQ(catalog.class_of(9), 0u);
  EXPECT_EQ(catalog.class_of(10), 1u);
  EXPECT_EQ(catalog.class_of(39), 3u);
  EXPECT_EQ(catalog.object(2, 5), 25u);
  EXPECT_EQ(catalog.class_of(catalog.object(3, 9)), 3u);
}

TEST(PartitionCatalog, OutOfRangeObjectDies) {
  PartitionCatalog catalog(2, 10);
  EXPECT_DEATH((void)catalog.class_of(20), "outside every partition");
}

TEST(VersionedStore, ReadLatestAfterLoad) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{5}});
  EXPECT_EQ(as_int(*store.read_latest(1)), 5);
  EXPECT_FALSE(store.read_latest(2).has_value());
}

TEST(VersionedStore, ProvisionalInvisibleUntilCommit) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{5}});
  store.write(kTxnA, 1, Value{std::int64_t{6}});
  EXPECT_EQ(as_int(*store.read_latest(1)), 5) << "uncommitted writes must be private";
  EXPECT_EQ(as_int(*store.read_for_txn(kTxnA, 1)), 6) << "...but visible to the writer";
  EXPECT_EQ(as_int(*store.read_for_txn(kTxnB, 1)), 5);
  store.commit(kTxnA, 1);
  EXPECT_EQ(as_int(*store.read_latest(1)), 6);
}

TEST(VersionedStore, AbortRollsBack) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{5}});
  store.write(kTxnA, 1, Value{std::int64_t{99}});
  store.abort(kTxnA);
  EXPECT_EQ(as_int(*store.read_latest(1)), 5);
  EXPECT_EQ(as_int(*store.read_for_txn(kTxnA, 1)), 5) << "provisional state gone after undo";
  store.commit(kTxnA, 1);  // commit of an undone txn is a no-op
  EXPECT_EQ(as_int(*store.read_latest(1)), 5);
  EXPECT_EQ(store.total_versions(), 1u);
}

TEST(VersionedStore, SnapshotReadsHistoricVersions) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{0}});
  for (TOIndex i = 1; i <= 5; ++i) {
    const TxnId txn = static_cast<TxnId>(i % 2);  // ids recycle across commits
    store.write(txn, 1, Value{static_cast<std::int64_t>(i * 10)});
    store.commit(txn, i);
  }
  EXPECT_EQ(as_int(*store.read_snapshot(1, 0)), 0);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 3)), 30);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 5)), 50);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 99)), 50);
}

TEST(VersionedStore, SnapshotBeforeBirthIsEmpty) {
  VersionedStore store;
  store.write(kTxnA, 7, Value{std::int64_t{1}});
  store.commit(kTxnA, 4);
  EXPECT_FALSE(store.read_snapshot(7, 3).has_value());
  EXPECT_TRUE(store.read_snapshot(7, 4).has_value());
}

TEST(VersionedStore, CommitIndicesMustAscendPerObject) {
  VersionedStore store;
  store.write(kTxnA, 1, Value{std::int64_t{1}});
  store.commit(kTxnA, 5);
  store.write(kTxnB, 1, Value{std::int64_t{2}});
  EXPECT_DEATH(store.commit(kTxnB, 5), "ascend");
}

TEST(VersionedStore, MultiObjectTransaction) {
  VersionedStore store;
  store.write(kTxnA, 1, Value{std::int64_t{1}});
  store.write(kTxnA, 2, Value{std::int64_t{2}});
  const auto writes = store.provisional_writes(kTxnA);
  EXPECT_EQ(writes.size(), 2u);
  store.commit(kTxnA, 1);
  EXPECT_EQ(as_int(*store.read_latest(1)), 1);
  EXPECT_EQ(as_int(*store.read_latest(2)), 2);
  EXPECT_TRUE(store.provisional_writes(kTxnA).empty());
}

TEST(VersionedStore, OverwriteWithinTransactionKeepsLast) {
  VersionedStore store;
  store.write(kTxnA, 1, Value{std::int64_t{1}});
  store.write(kTxnA, 1, Value{std::int64_t{2}});
  store.commit(kTxnA, 1);
  EXPECT_EQ(as_int(*store.read_latest(1)), 2);
  EXPECT_EQ(store.total_versions(), 1u) << "one version per object per txn";
}

TEST(VersionedStore, CommitPrunesWrittenChainsBelowHorizon) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{0}});
  store.load(2, Value{std::int64_t{0}});
  for (TOIndex i = 1; i <= 10; ++i) {
    const TxnId txn = static_cast<TxnId>(i % 3);  // ids recycle across commits
    store.write(txn, 1, Value{static_cast<std::int64_t>(i)});
    store.write(txn, 2, Value{static_cast<std::int64_t>(i)});
    store.commit(txn, i);  // horizon 0: keep every version
  }
  EXPECT_EQ(store.total_versions(), 22u);
  store.write(0, 1, Value{std::int64_t{11}});
  store.commit(0, 11, /*horizon=*/8);
  // Object 1: versions 0..6 dropped, 7 survives as the horizon version, plus
  // 8..11. Object 2 was not written, so its chain is untouched.
  EXPECT_EQ(store.total_versions(), 5u + 11u);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 8)), 8);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 7)), 7) << "horizon snapshot still readable";
  EXPECT_FALSE(store.read_snapshot(1, 6).has_value()) << "below the horizon: pruned";
  EXPECT_EQ(as_int(*store.read_snapshot(2, 0)), 0);
  EXPECT_EQ(as_int(*store.read_latest(1)), 11);
}

TEST(VersionedStore, DoubleLoadDies) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{0}});
  EXPECT_DEATH(store.load(1, Value{std::int64_t{1}}), "load");
}

TEST(ProcedureRegistry, RegistersAndRuns) {
  PartitionCatalog catalog(2, 10);
  VersionedStore store;
  ProcedureRegistry registry;
  const ProcId deposit = registry.add("deposit", [](TxnContext& ctx) {
    const ObjectId account = static_cast<ObjectId>(ctx.args().ints[0]);
    ctx.write(account, ctx.read_int(account) + ctx.args().ints[1]);
  });
  EXPECT_EQ(registry.name(deposit), "deposit");
  EXPECT_EQ(registry.size(), 1u);

  TxnArgs args;
  args.ints = {3, 100};  // account 3 (class 0), amount 100
  ReadLog reads;
  TxnContext ctx(store, catalog, kTxnA, 0, args, &reads);
  registry.get(deposit)(ctx);
  EXPECT_EQ(store.provisional_writes(kTxnA).size(), 1u);  // the only write set
  store.commit(kTxnA, 1);
  EXPECT_EQ(as_int(*store.read_latest(3)), 100);
  EXPECT_EQ(reads.size(), 1u);
}

TEST(ProcedureRegistry, UnknownProcedureDies) {
  ProcedureRegistry registry;
  EXPECT_DEATH((void)registry.get(0), "unknown stored procedure");
}

TEST(TxnContext, EnforcesConflictClassDiscipline) {
  PartitionCatalog catalog(2, 10);
  VersionedStore store;
  TxnArgs args;
  TxnContext ctx(store, catalog, kTxnA, 0, args);
  EXPECT_EQ(ctx.read_int(5), 0);  // class 0: fine, defaults to 0
  EXPECT_DEATH((void)ctx.read(15), "outside its conflict class");
  EXPECT_DEATH(ctx.write(15, Value{std::int64_t{1}}), "outside its conflict class");
}

TEST(TxnContext, ReadsOwnWrites) {
  PartitionCatalog catalog(1, 10);
  VersionedStore store;
  TxnArgs args;
  TxnContext ctx(store, catalog, kTxnA, 0, args);
  ctx.write(1, Value{std::int64_t{41}});
  EXPECT_EQ(ctx.read_int(1), 41);
}

}  // namespace
}  // namespace otpdb
