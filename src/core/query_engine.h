// Shared snapshot-query machinery (paper Section 5), used by OtpReplica and
// so by every engine built on it: OTP, the conservative baseline and the
// lock-table engine.
//
// The engine tracks state per *conflict domain*, which is the replica's queue
// key: a conflict class (the paper's model), or a single object under object
// keys (the lock-table engine). Per domain it records the definitive indices
// TO-delivered at this site and the last locally committed index. A query
// started after the i-th TO-delivery reads snapshot "i.5": for each domain it
// observes the version written by the youngest domain transaction with
// definitive index <= i, waiting for that transaction's local commit when it
// is still in flight.
//
// It also tracks the site's *committed floor*: every definitive index at or
// below it is committed (or dropped) here. A warm recovery restarts
// snapshots there, and together with the oldest live snapshot it bounds
// which versions the store must keep (gc_horizon).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/query.h"
#include "db/partition.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"
#include "util/recycling.h"

namespace otpdb {

class QueryEngine {
 public:
  /// Domain identifier: a conflict class, or a dense object index (a
  /// QueueKey).
  using Domain = std::uint64_t;
  using DomainOf = std::function<Domain(ObjectId)>;

  /// Class-granularity engine (paper Section 2.3): domain = conflict class.
  QueryEngine(Simulator& sim, const VersionedStore& store, const PartitionCatalog& catalog,
              ReplicaMetrics& metrics);

  /// Generic engine: `domain_of` maps objects to [0, domain_count) domains.
  QueryEngine(Simulator& sim, const VersionedStore& store, std::size_t domain_count,
              DomainOf domain_of, ReplicaMetrics& metrics);

  /// Client entry point: runs `fn` against the current snapshot after
  /// `exec_duration` of simulated work; `done` receives the report.
  void submit(QueryFn fn, SimTime exec_duration, QueryDoneFn done);

  /// Engine notification: a transaction covering `domain` was TO-delivered
  /// with `index`. For multi-domain transactions call once per domain after a
  /// single advance_to_index(). An index at or below the domain's commit
  /// watermark is a recovery replay and counts as done for the floor.
  void note_to_delivered(Domain domain, TOIndex index);

  /// Advances the site's highest processed definitive index (call exactly
  /// once per TO-delivery, before the per-domain notifications). Indices at
  /// or below committed_floor() are replays and leave it unchanged.
  void advance_to_index(TOIndex index);

  /// Engine notification: a transaction covering `domain` committed (or was
  /// dropped) with `index`. Call once per covered domain, then
  /// finish_commit(index) once, so no query observes a state where only
  /// some covered watermarks moved.
  void note_committed(Domain domain, TOIndex index);
  /// Finishes the commit (or drop) of `index`, once per index: raises the
  /// committed floor past it when nothing older is outstanding and wakes
  /// the queries waiting on it.
  void finish_commit(TOIndex index);

  /// Highest definitive index processed at this site.
  TOIndex last_to_index() const { return last_to_index_; }

  /// j = max{k <= snapshot : T_k covers domain}, 0 when no such txn exists.
  TOIndex snapshot_bound(Domain domain, TOIndex snapshot) const;

  /// Commit watermark of `domain`: its last committed (or dropped)
  /// definitive index, or the durable floor after a cold restart. Crash
  /// recovery uses it to suppress re-execution of replayed transactions.
  TOIndex last_committed(Domain domain) const { return last_committed_[domain]; }

  /// Crash recovery: clears volatile state (TO-delivery history, snapshot
  /// index back to committed_floor(), never below) while keeping the
  /// per-domain commit watermarks. The history is rebuilt by the redo
  /// replay. Queries not yet answered - parked or still scheduled - die with
  /// the site: they are dropped unanswered and counted in
  /// ReplicaMetrics::queries_dropped.
  void reset_volatile();

  /// Cold restart: the store was rebuilt as exactly the committed state at
  /// `durable_floor` (possibly LOWER than the floor before the crash - the
  /// unflushed group-commit tail died with RAM). Every domain's commit
  /// watermark, the committed floor and the snapshot index restart there:
  /// everything at or below it is committed, nothing above it is, and the
  /// store holds no version that only an older snapshot could read. Call
  /// after reset_volatile().
  void restore_watermarks(TOIndex durable_floor);

  /// One below the lowest TO-delivered index not yet committed or dropped
  /// here (last_to_index() when nothing is outstanding). Only rises, except
  /// that a cold restart winds it back to the durable floor.
  TOIndex committed_floor() const { return committed_floor_; }

  /// TO-delivery history entries held over all domains.
  std::size_t history_entries() const {
    std::size_t n = 0;
    for (const History& history : to_history_) n += history.indices.size();
    return n;
  }

  /// GC horizon for VersionedStore::commit: min(oldest live query snapshot,
  /// committed floor) + 1. Every present or future snapshot is at or above
  /// horizon - 1, so a chain only needs its newest version below the
  /// horizon plus everything newer.
  TOIndex gc_horizon() const;

 private:
  // Queries live in a recycled slot pool: the scheduled event and the parked
  // waiter entries carry a slot index, not a shared_ptr, so neither submit
  // nor park/wake touches the heap once the pool is warm. A slot is freed
  // exactly when its query completes (it is referenced from one place at a
  // time: the scheduled event, then at most one waiter entry per retry).
  struct RunningQuery {
    QueryFn fn;
    QueryDoneFn done;
    TOIndex snapshot = 0;
    SimTime submitted_at = 0;
    std::uint32_t attempts = 0;
    EventId first_run;  ///< the scheduled first run (stale once it fired)
    bool live = false;  ///< submitted and not yet answered
  };
  using QuerySlot = std::uint32_t;

  /// A parked query: re-run when the transaction with definitive index
  /// `index` commits locally. Kept sorted by index (FIFO within an index).
  struct Waiter {
    TOIndex index;
    QuerySlot slot;
  };

  QuerySlot acquire_slot();
  void release_slot(QuerySlot slot);
  /// Marks `index` committed or dropped and raises the committed floor over
  /// the done prefix.
  void mark_done(TOIndex index);
  void run(QuerySlot slot);
  Value read(ObjectId obj, TOIndex snapshot) const;  // throws detail::SnapshotNotReady

  Simulator& sim_;
  const VersionedStore& store_;
  DomainOf domain_of_;
  ReplicaMetrics& metrics_;

  /// One domain's TO-delivered indices, ascending. Entries below
  /// gc_horizon() are erased in bulk whenever the history has doubled since
  /// the last erase, so it stays within twice its live part and its
  /// capacity is reused.
  struct History {
    static constexpr std::size_t kMinTrim = 16;
    std::vector<TOIndex> indices;
    std::size_t trim_at = kMinTrim;  // size at which the next erase runs
  };
  std::vector<History> to_history_;  // per domain
  std::vector<TOIndex> last_committed_;           // per domain
  TOIndex committed_floor_ = 0;
  /// The element blocks of done_ and active_snapshots_, recycled: both
  /// windows slide, so once warm they allocate nothing.
  FreeBlocks window_blocks_;  // before the windows: outlives them
  /// Indices (committed_floor_, last_to_index_]: true once committed or
  /// dropped. The front is always false, so the window spans only what is
  /// still in flight.
  std::deque<bool, RecyclingAllocator<bool>> done_{RecyclingAllocator<bool>(&window_blocks_)};
  TOIndex last_to_index_ = 0;
  std::vector<RunningQuery> pool_;       // slot-indexed, recycled
  std::vector<QuerySlot> free_slots_;
  std::vector<Waiter> waiters_;          // sorted by index, FIFO within ties
  std::vector<QuerySlot> wake_scratch_;  // reused by finish_commit
  /// The read log of the run in progress, reused run after run (a report
  /// borrows it while its done callback runs).
  std::vector<std::pair<ObjectId, Value>> read_log_;
  /// Live queries per snapshot index, ascending by index. A query's snapshot
  /// is last_to_index_, which only rises between resets, so a new snapshot
  /// joins at the back, and the front is popped once its count reaches zero:
  /// it is the oldest live snapshot.
  struct SnapshotCount {
    TOIndex snapshot = 0;
    std::size_t queries = 0;
  };
  std::deque<SnapshotCount, RecyclingAllocator<SnapshotCount>> active_snapshots_{
      RecyclingAllocator<SnapshotCount>(&window_blocks_)};
};

}  // namespace otpdb
