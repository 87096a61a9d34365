// LockTableReplica - optimistic transaction processing with fine-granularity
// (object-level) locking, the extension the paper's Section 6 announces and
// its companion report [13] develops.
//
// The class-queue model serializes every pair of transactions in the same
// conflict class even when they touch disjoint objects. Here each *object*
// has its own FIFO queue (a lock-table wait list). A transaction pre-declares
// its object access set (derived from its stored procedure's arguments by a
// registered extractor); on Opt-delivery it enters the queues of all its
// objects atomically, in tentative-order position; it executes when it heads
// every queue it is in ("holds all its locks") and commits once it is both
// executed and TO-delivered.
//
// Deadlock freedom without lock ordering: within a site, every queue's
// content order is consistent with one total order - committable transactions
// first (in definitive order), then pending transactions (in tentative
// arrival order, and a transaction enters all its queues at one instant).
// The least uncommitted transaction in that order heads all its queues, so
// some transaction can always run.
//
// The correctness-check step generalizes Figure 6: upon TO-delivery of T, any
// *pending* transaction that precedes T in one of T's queues and has started
// (or finished) executing is wrongly ordered relative to T - it is undone
// (provisional-version rollback) and re-executed later; T is rescheduled
// directly after the committable prefix of each of its queues. Conflicting
// transactions (shared object) therefore commit in definitive order at every
// site, giving 1-copy-serializability at object granularity - transactions
// of one class with disjoint access sets now run concurrently.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "abcast/abcast.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/replica_base.h"
#include "core/txn.h"
#include "core/txn_table.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"

namespace otpdb {

/// Derives a transaction's object access set from its class and arguments.
/// Must be deterministic and identical at all sites (like the procedures).
using AccessSetExtractor = std::function<std::vector<ObjectId>(ClassId, const TxnArgs&)>;

/// Returns the extractor matching workload::register_rmw_procedure's argument
/// convention (ints = [delta, offset...] within the class partition).
AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog);

class LockTableReplica final : public ReplicaBase {
 public:
  LockTableReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                   const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                   SiteId self, AccessSetExtractor extractor);

  // ReplicaBase:
  /// Admission/backpressure + presubmit-deadline gating only: queue-head
  /// deadline drops would need per-object virtual service clocks, so a
  /// post-admission deadline is ignored once admitted.
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// The lock-table engine already serializes at object granularity; its
  /// access-set extractor is keyed to a single class's argument convention,
  /// so it routes single-element class sets to submit_update and rejects
  /// genuine multi-class submissions explicitly (declare the union access set
  /// via submit_update_with_access instead).
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override;
  void set_commit_hook(CommitHook hook) override { commit_hook_ = std::move(hook); }
  std::size_t in_flight() const override {
    return txns_.live() + metrics_.queries_in_flight();
  }
  const ReplicaMetrics& metrics() const override { return metrics_; }
  SiteId site() const override { return self_; }
  TOIndex committed_floor() const override { return queries_.committed_floor(); }

  /// Submits with an explicit access set (bypasses the extractor).
  SubmitResult submit_update_with_access(ProcId proc, ClassId klass,
                                         std::vector<ObjectId> access_set, TxnArgs args,
                                         SimTime exec_duration, SimTime deadline = 0);

  /// Introspection for tests.
  std::size_t queue_length(ObjectId obj) const;
  TOIndex last_to_index() const { return queries_.last_to_index(); }

  // Direct event entry points (tests drive these; production wiring goes
  // through the abcast callbacks).
  void on_opt_deliver(const Message& msg);
  void on_to_deliver(const MsgId& id, TOIndex index);
  void on_to_deliver_batch(std::span<const ToDelivery> batch);

 private:
  /// One object's FIFO wait list. TxnRecord pointers, same invariants as the
  /// class queue: committable prefix in definitive order, pending suffix in
  /// tentative order.
  using ObjectQueue = std::vector<TxnRecord*>;

  void to_deliver_one(TxnRecord* txn);
  bool heads_all_queues(const TxnRecord* txn) const;
  void try_execute(TxnRecord* txn);
  void execution_complete(TxnRecord* txn);
  void abort_transaction(TxnRecord* txn);
  void commit(TxnRecord* txn);
  void reorder_before_first_pending(ObjectQueue& queue, TxnRecord* txn);
  void try_execute_heads_of(const std::vector<ObjectId>& objects);

  Simulator& sim_;
  AtomicBroadcast& abcast_;
  StorageBackend& backend_;
  VersionedStore& store_;  // backend_.memory(): reads + provisional writes
  const PartitionCatalog& catalog_;
  const ProcedureRegistry& registry_;
  SiteId self_;
  AccessSetExtractor extractor_;

  // The catalog's object space is contiguous, so the lock table is a plain
  // vector indexed by ObjectId - no hashing per lock acquire/release.
  std::vector<ObjectQueue> queues_;
  TxnTable txns_;

  std::uint64_t next_client_seq_ = 0;
  ReplicaMetrics metrics_;
  QueryEngine queries_;
  CommitHook commit_hook_;
  CommitRecord commit_record_;  // refilled by every commit (see CommitHook)
};

}  // namespace otpdb
