// ConservativeReplica - the non-optimistic baseline ([1,12,16,17] in the
// paper): transactions execute only after TO-delivery, in definitive order.
//
// Identical substrate to OtpReplica (same broadcast, store, class queues,
// snapshot queries) minus the optimism: Opt-deliveries only buffer the
// request body; execution starts at TO-delivery. Since execution order always
// equals the definitive order, there are never aborts or reorderings - but
// the full ordering latency of the broadcast sits on the critical path of
// every transaction. This is the direct ablation for the paper's overlap
// claim (bench/overlap_latency).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "abcast/abcast.h"
#include "core/class_queue.h"
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

namespace otpdb {

class ConservativeReplica final : public ReplicaBase {
 public:
  ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                      const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                      SiteId self);

  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// Cross-partition update: enters every covered class queue at TO-delivery
  /// (definitive order everywhere), executes only while heading all of them,
  /// commits across all of them atomically.
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override;
  void set_commit_hook(CommitHook hook) override { commit_hook_ = std::move(hook); }
  std::size_t in_flight() const override {
    return buffered_ + queued_ + metrics_.queries_in_flight();
  }
  const ReplicaMetrics& metrics() const override { return metrics_; }
  SiteId site() const override { return self_; }
  TOIndex committed_floor() const override { return queries_.committed_floor(); }

  TOIndex last_to_index() const { return queries_.last_to_index(); }
  /// Introspection for tests: the commit watermark of `klass` (the last
  /// definitive index committed or dropped in it).
  TOIndex last_committed(ClassId klass) const { return queries_.last_committed(klass); }

  /// Crash recovery: drops all volatile state (buffered bodies, queues,
  /// scheduled completions, provisional writes). Committed versions and the
  /// per-class commit watermarks survive; replayed TO-deliveries at or below
  /// a class watermark are acknowledged without re-execution.
  void crash_recover_reset() override;

  /// Cold restart over the durable tier (see ReplicaBase).
  void restart_from_disk(std::span<const TOIndex> class_watermarks,
                         TOIndex durable_floor) override;

 private:
  /// Builds and TO-broadcasts a request. `classes` is empty for single-class
  /// submissions, the normalized set (and klass its first element) otherwise.
  void broadcast_request(ProcId proc, ClassId klass, std::vector<ClassId> classes,
                         TxnArgs args, SimTime exec_duration, SimTime deadline);

  void on_opt_deliver(const Message& msg);
  void on_to_deliver(const MsgId& id, TOIndex index);
  void on_to_deliver_batch(std::span<const ToDelivery> batch);
  void to_deliver_one(TxnRecord* txn);
  bool heads_all_queues(const TxnRecord* txn) const;
  /// Retires a deadline-dropped transaction heading all its covered queues:
  /// no effects, no commit hook, but the commit watermarks advance past it.
  void retire_expired(TxnRecord* txn);
  /// Worklist-driven head promotion after a commit or drop: starts newly
  /// exposed heads and retires expired ones, chaining through consecutive
  /// drops (the same scheme as OtpReplica::promote_heads).
  void promote_heads(std::span<const ClassId> classes);
  void try_execute(TxnRecord* txn);
  void submit_execution(TxnRecord* txn);
  void on_complete(TxnRecord* txn);

  Simulator& sim_;
  AtomicBroadcast& abcast_;
  StorageBackend& backend_;
  VersionedStore& store_;  // backend_.memory(): reads + provisional writes
  const PartitionCatalog& catalog_;
  const ProcedureRegistry& registry_;
  SiteId self_;

  std::vector<ClassQueue> queues_;
  TxnTable txns_;
  /// Deadline budgets: the same drops as the OTP engine (core/service_clock.h).
  ServiceClock service_clock_;
  std::vector<ClassId> promote_stack_;  // promote_heads worklist
  bool promoting_ = false;              // reentrancy guard for promote_heads
  std::size_t buffered_ = 0;  ///< Opt-delivered, not yet TO-delivered
  std::size_t queued_ = 0;    ///< TO-delivered, not yet committed

  std::uint64_t next_client_seq_ = 0;
  ReplicaMetrics metrics_;
  QueryEngine queries_;
  CommitHook commit_hook_;
  CommitRecord commit_record_;  // refilled by every commit (see CommitHook)
};

}  // namespace otpdb
