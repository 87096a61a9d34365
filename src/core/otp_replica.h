// OtpReplica - the OTP algorithm for optimistic transaction processing
// (paper Section 3, Figures 4-6).
//
// One OtpReplica runs at each site, wired to that site's atomic-broadcast
// endpoint and versioned store. The three algorithm modules are methods
// driven by events, exactly as the paper frames them ("steps in the lifetime
// of a transaction", not threads):
//
//   Serialization module (Figure 4)    <- Opt-deliver
//     S1 append to the class queue, S2 mark pending+active,
//     S3-S5 submit for execution if alone in the queue.
//
//   Execution module (Figure 5)        <- execution completion
//     E1-E3 commit if already committable and start the next transaction,
//     E4-E6 otherwise mark executed.
//
//   Correctness check module (Figure 6) <- TO-deliver
//     CC1-CC4 commit an executed head, else
//     CC5-CC13 mark committable, abort a wrongly ordered pending head (undo
//     via the store's provisional-version rollback), reorder before the first
//     pending transaction, and resubmit if now at the head.
//
// Update transactions are TO-broadcast (read-one/write-all replica control,
// Section 2.4); queries run locally on snapshots (Section 5, QueryEngine).
//
// Multi-class (cross-partition) transactions generalize every module to a
// sorted class *set* (Section 6 direction): Opt-deliver enqueues into every
// covered class queue, execution starts only while the transaction heads all
// of them, CC8/CC10 run per covered queue, and commit removes the head of and
// advances the commit watermark of every covered class atomically. All sites
// enqueue in the same tentative order and acquire queues in ascending class
// order, so the head-of-all gating cannot deadlock: queue contents stay
// consistent with one total order (committable prefix in definitive order,
// pending suffix in tentative order), and the least transaction in that order
// always heads all its queues.
//
// Transaction identity is interned at Opt-deliver time: the broadcast's
// MsgId becomes a dense site-local TxnId, and the transaction table, the
// store's provisional write-sets and the commit path all index flat arrays by
// it. Retired ids (and their record/write-set storage) are recycled.
//
// Two choices are fixed at construction, and every module above is the same
// code under each of them:
//   * when a transaction enters its queues (S1-S2): at Opt-delivery (OTP),
//     or at TO-delivery - the conservative baseline
//     (baseline/conservative_replica.h);
//   * what a queue key is (QueueKeys): a covered conflict class, or a
//     declared object of the request's access set - the lock-table engine
//     (core/lock_table_replica.h). The queues, the query engine's domains
//     and the service clock's lanes are all indexed by the key. Under object
//     keys an object holds a pooled queue only while transactions wait on
//     it, so an idle object allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "abcast/abcast.h"
#include "core/class_queue.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/replica_base.h"
#include "core/service_clock.h"
#include "core/txn.h"
#include "core/txn_table.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"
#include "util/recycling.h"

namespace otpdb {

struct OtpReplicaConfig {
  /// Validate queue invariants after every module step (debug/property tests).
  bool paranoid_checks = false;
};

class OtpReplica : public ReplicaBase {
 public:
  OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
             const PartitionCatalog& catalog, const ProcedureRegistry& registry, SiteId self,
             OtpReplicaConfig config = {});

  // ReplicaBase:
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// Cross-partition update: enqueued into every covered class queue on
  /// Opt-deliver, executed only while heading all of them, committed/aborted
  /// across all of them atomically. Queues are always entered in ascending
  /// class order at every site (same tentative order everywhere), so the
  /// gating is deadlock-free.
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override;
  const ReplicaMetrics& metrics() const override { return metrics_; }
  SiteId site() const override { return self_; }
  TOIndex committed_floor() const override { return queries_.committed_floor(); }

  /// Commit hook for history recording (checker) - invoked at every commit.
  void set_commit_hook(CommitHook hook) override { commit_hook_ = std::move(hook); }

  /// Transactions not yet committed plus queries not yet answered.
  std::size_t in_flight() const override {
    return txns_.live() + metrics_.queries_in_flight();
  }

  /// Introspection for tests: the class queue of `klass` (class keys).
  const ClassQueue& class_queue(ClassId klass) const { return queues_[klass]; }
  /// Highest definitive index processed at this site.
  TOIndex last_to_index() const { return queries_.last_to_index(); }
  /// Introspection for tests: the MsgId -> TxnId interner.
  const TxnIdInterner& interner() const { return txns_.interner(); }
  /// Introspection for tests: the snapshot-query engine.
  const QueryEngine& queries() const { return queries_; }

  // Direct event entry points (public so unit tests can drive the modules
  // without a network; production wiring goes through the abcast callbacks).
  void on_opt_deliver(const Message& msg);
  void on_to_deliver(const MsgId& id, TOIndex index);
  /// Batched TO-delivery: drains a burst in one pass (same per-entry
  /// semantics and ordering as repeated on_to_deliver calls).
  void on_to_deliver_batch(std::span<const ToDelivery> batch);

  /// Crash recovery: drops all volatile state (class queues, in-flight
  /// transactions and their scheduled completions, provisional writes,
  /// TO-delivery history). Committed versions and the per-class commit
  /// watermarks survive; during the redo replay, TO-deliveries at or below a
  /// class watermark are acknowledged without re-execution.
  void crash_recover_reset() override;

  /// Cold restart over the durable tier: the store was already rebuilt as
  /// the committed state at `durable_floor`; this winds every query
  /// watermark back to it, starts query snapshots there and accepts
  /// body-less TO-delivery tombstones up to it during catch-up.
  void restart_from_disk(TOIndex durable_floor) override;

 protected:
  /// When a transaction enters its queues (serialization steps S1-S2).
  enum class Serialize : std::uint8_t { at_opt_delivery, at_to_delivery };
  /// What the queues, query domains and service-clock lanes are keyed by.
  enum class Keys : std::uint8_t { classes, objects };
  OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
             const PartitionCatalog& catalog, const ProcedureRegistry& registry, SiteId self,
             OtpReplicaConfig config, Serialize serialize, Keys keys = Keys::classes);

  /// The submit paths' shared tail: runs the ingress gate and, once admitted,
  /// TO-broadcasts the request. `classes` is empty for single-class
  /// submissions, the normalized set (and klass its first element)
  /// otherwise; `access_set` is empty except under object keys.
  SubmitResult gate_and_broadcast(ProcId proc, ClassId klass, std::vector<ClassId> classes,
                                  std::vector<ObjectId> access_set, TxnArgs args,
                                  SimTime exec_duration, SimTime deadline);

  /// The queue of `key`; nullptr for an idle object under object keys.
  const ClassQueue* find_queue(QueueKey key) const;

 private:
  // -- Figure 4: serialization module ---------------------------------------
  void serialization_module(TxnRecord* txn);
  /// S1-S2: append to every covered queue, marked pending and active.
  void enqueue(TxnRecord* txn);
  // -- Figure 5: execution module --------------------------------------------
  void execution_module(TxnRecord* txn);
  // -- Figure 6: correctness check module ------------------------------------
  void correctness_check_module(TxnRecord* txn);

  /// The transaction's queue keys (a view over its request).
  QueueKeys keys_of(const TxnRecord* txn) const;
  /// The queue of `key`. Pre: bound, under object keys.
  ClassQueue& queue(QueueKey key) { return queues_[by_object_ ? queue_slot_[key] : key]; }
  /// S1's queue for `key`: under object keys an idle object first binds a
  /// pooled queue.
  ClassQueue& bind_queue(QueueKey key);
  /// Removes `txn` from the head of `key`'s queue; under object keys an
  /// emptied queue goes back to the pool.
  void pop_head(QueueKey key, TxnRecord* txn);

  void to_deliver_one(TxnRecord* txn);
  /// CC7-CC10 over every queue `txn` covers: undoes a wrongly ordered pending
  /// head that has optimistic effects (CC8) and moves `txn` ahead of the
  /// first pending transaction (CC10). Returns whether any queue moved.
  bool reorder_before_pending(TxnRecord* txn);
  /// Retires an expired transaction heading all its covered queues: no
  /// effects, no commit hook, but the commit watermarks advance (waiting
  /// queries must not block on a slot that will never produce versions).
  void retire_expired(TxnRecord* txn);
  /// Worklist-driven head promotion after a commit or expired-retire: runs
  /// newly exposed heads, retiring expired committable ones. A worklist (not
  /// recursion) because N consecutive expired heads retire each other in a
  /// chain under overload.
  void promote_heads(QueueKeys keys);
  /// True when `txn` heads every queue it covers (trivially its single queue
  /// in the base model). Only such a transaction may run or commit.
  bool heads_all_queues(const TxnRecord* txn) const;
  /// Starts execution if `txn` is active, not running, and heads all its
  /// queues (S3-S5 / CC11-CC12 generalized).
  void try_execute(TxnRecord* txn);
  void submit_execution(TxnRecord* txn);
  void abort_transaction(TxnRecord* txn);  // CC8: undo a wrongly ordered head
  void commit(TxnRecord* txn);

  void check_invariants(const TxnRecord* txn) const;

  Simulator& sim_;
  AtomicBroadcast& abcast_;
  StorageBackend& backend_;
  VersionedStore& store_;  // backend_.memory(): reads + provisional writes
  const PartitionCatalog& catalog_;
  const ProcedureRegistry& registry_;
  SiteId self_;
  OtpReplicaConfig config_;
  bool serialize_at_to_;  // the conservative baseline: S1-S2 at TO-delivery
  bool by_object_;        // the lock-table engine: queue keys are objects

  /// Class keys: one queue per class. Object keys: the pool of queues bound
  /// to objects with waiters (queue_slot_), and the unbound ones (free_slots_).
  /// The queues' deque blocks recycle through queue_blocks_ (declared first,
  /// so it outlives them).
  FreeBlocks queue_blocks_;
  std::vector<ClassQueue> queues_;
  std::vector<std::uint32_t> queue_slot_;  // per object: its queue, or kIdle
  std::vector<std::uint32_t> free_slots_;
  TxnTable txns_;
  /// Deadline budgets: drops are a pure function of the definitive order, so
  /// every site drops the same transactions (see core/service_clock.h).
  ServiceClock service_clock_;
  std::vector<QueueKey> promote_stack_;  // promote_heads worklist
  bool promoting_ = false;              // reentrancy guard for promote_heads

  std::uint64_t next_client_seq_ = 0;
  BodyPool<TxnRequest> requests_;  // every request this site broadcasts
  ReplicaMetrics metrics_;
  QueryEngine queries_;
  CommitHook commit_hook_;
  CommitRecord commit_record_;  // refilled by every commit (see CommitHook)
};

}  // namespace otpdb
