#include "core/otp_replica.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

OtpReplica::OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                       const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                       SiteId self, OtpReplicaConfig config)
    : OtpReplica(sim, abcast, storage, catalog, registry, self, config,
                 Serialize::at_opt_delivery) {}

OtpReplica::OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                       const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                       SiteId self, OtpReplicaConfig config, Serialize serialize)
    : sim_(sim),
      abcast_(abcast),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      config_(config),
      serialize_at_to_(serialize == Serialize::at_to_delivery),
      service_clock_(catalog.class_count()),
      queries_(sim, store_, catalog, metrics_) {
  queues_.reserve(catalog.class_count());
  for (std::size_t c = 0; c < catalog.class_count(); ++c) {
    queues_.emplace_back(static_cast<ClassId>(c));
  }
  abcast_.set_callbacks(AbcastCallbacks{
      [this](const Message& msg) { on_opt_deliver(msg); },
      [this](const MsgId& id, TOIndex index) { on_to_deliver(id, index); },
      [this](std::span<const ToDelivery> batch) { on_to_deliver_batch(batch); },
  });
}

void OtpReplica::broadcast_request(ProcId proc, ClassId klass, std::vector<ClassId> classes,
                                   TxnArgs args, SimTime exec_duration, SimTime deadline) {
  auto request = std::make_shared<TxnRequest>();
  request->proc = proc;
  request->klass = klass;
  request->classes = std::move(classes);
  request->args = std::move(args);
  request->origin = self_;
  request->client_seq = next_client_seq_++;
  request->submitted_at = sim_.now();
  request->exec_duration = exec_duration;
  request->deadline = deadline;
  ++metrics_.submitted_updates;
  abcast_.broadcast(std::move(request));
}

SubmitResult OtpReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                       SimTime exec_duration, SimTime deadline) {
  OTPDB_CHECK(klass < catalog_.class_count());
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  broadcast_request(proc, klass, {}, std::move(args), exec_duration, deadline);
  return SubmitResult::admitted;
}

SubmitResult OtpReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                             TxnArgs args, SimTime exec_duration,
                                             SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK(classes.back() < catalog_.class_count());
  if (classes.size() == 1) {  // the base model's case: no class vector needed
    return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
  }
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  const ClassId primary = classes.front();
  broadcast_request(proc, primary, std::move(classes), std::move(args), exec_duration, deadline);
  return SubmitResult::admitted;
}

void OtpReplica::submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  queries_.submit(std::move(fn), exec_duration, std::move(done));
}

// ---------------------------------------------------------------------------
// Figure 4: serialization module (upon Opt-delivery of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::on_opt_deliver(const Message& msg) {
  OTPDB_ASSERT(std::dynamic_pointer_cast<const TxnRequest>(msg.payload) != nullptr);
  auto request = std::static_pointer_cast<const TxnRequest>(msg.payload);
  // acquire() checks against duplicate Opt-delivery.
  TxnRecord* txn = txns_.acquire(msg.id, std::move(request));
  txn->opt_delivered_at = sim_.now();
  if (!serialize_at_to_) serialization_module(txn);
}

void OtpReplica::serialization_module(TxnRecord* txn) {
  enqueue(txn);  // S1-S2
  if (txn->request->deadline != 0 && sim_.now() > txn->request->deadline) {
    // Already past its budget when it arrived: skip the optimistic execution
    // (pure waste - its effects would be undone). Site-local economy only;
    // the transaction stays queued and the authoritative drop-vs-commit
    // decision is the virtual-clock rule at TO-delivery, so a skip here never
    // diverges the replicas.
    ++metrics_.deadline_skips_opt;
  } else {
    try_execute(txn);  // S3-S5: submit iff heading all covered queues
  }
  if (config_.paranoid_checks) check_invariants(txn);
}

void OtpReplica::enqueue(TxnRecord* txn) {
  txn->deliv = DeliveryState::pending;  // S2: mark pending and active
  txn->exec = ExecState::active;
  // S1: append to every covered queue, in ascending class order (identical at
  // all sites, so the head-of-all gating is deadlock-free).
  for (ClassId c : txn->request->class_span()) queues_[c].append(txn);
}

// ---------------------------------------------------------------------------
// Figure 5: execution module (upon complete execution of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::execution_module(TxnRecord* txn) {
  txn->running = false;
  txn->executed_at = sim_.now();
  if (txn->deliv == DeliveryState::committable) {  // E1: marked committable?
    txn->exec = ExecState::executed;
    commit(txn);  // E2-E3: commit, start next
  } else {
    txn->exec = ExecState::executed;  // E5: mark executed
    if (config_.paranoid_checks) check_invariants(txn);
  }
}

// ---------------------------------------------------------------------------
// Figure 6: correctness check module (upon TO-delivery of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::on_to_deliver(const MsgId& id, TOIndex index) {
  // CC1: Local Order guarantees Opt-deliver precedes TO-deliver - except for
  // catch-up tombstones at or below the committed floor, which skip the body
  // entirely because this site already holds the commit's versions (kept in
  // RAM by a warm recovery, rebuilt from checkpoint + WAL by a cold restart).
  TxnRecord* txn = txns_.lookup_if_present(id);
  if (txn == nullptr) {
    OTPDB_CHECK_MSG(index <= queries_.committed_floor(), "TO-delivery without prior Opt-delivery");
    return;
  }
  txn->to_index = index;
  to_deliver_one(txn);
}

void OtpReplica::on_to_deliver_batch(std::span<const ToDelivery> batch) {
  // A decided burst drains in one pass; per-entry handling is identical to
  // repeated on_to_deliver calls (commit orders and metrics do not change).
  for (const auto& [id, index] : batch) on_to_deliver(id, index);
}

void OtpReplica::to_deliver_one(TxnRecord* txn) {
  // The conservative baseline serializes in definitive order: everything
  // queued ahead of txn is committable, so the checks below never undo or
  // reorder, and txn runs once it heads its queues (CC11-CC12).
  if (serialize_at_to_) enqueue(txn);
  const TOIndex index = txn->to_index;
  txn->to_delivered_at = sim_.now();
  const auto classes = txn->request->class_span();
  queries_.advance_to_index(index);
  for (ClassId c : classes) queries_.note_to_delivered(c, index);

  // Deadline budget: a drop is decided by the definitive order alone.
  // Replays at or below the committed floor are not charged again - a warm
  // recovery wound the clock back to that floor.
  if (!service_clock_.admit(*txn->request, index, queries_.committed_floor())) {
    txn->expired = true;  // dropped: occupies no service time
  }

  // Crash-recovery replay: a TO-delivery at or below the covered classes'
  // durable commit watermarks was already committed before the crash -
  // acknowledge it without re-executing (its versions are in the store). The
  // queue handling mirrors CC7-CC12 per covered queue: a wrongly ordered live
  // head is undone, the replayed transaction surfaces to the head of every
  // covered queue, and is then silently retired.
  if (index <= queries_.last_committed(classes.front())) {
#ifndef NDEBUG
    // Commits are atomic across the covered classes, so the watermarks agree.
    for (ClassId c : classes) OTPDB_ASSERT(index <= queries_.last_committed(c));
#endif
    txn->deliv = DeliveryState::committable;
    if (txn->running) {
      sim_.cancel(txn->completion);
      txn->running = false;
    }
    backend_.abort(txn->tid);  // drop any provisional re-execution of replayed work
    for (ClassId c : classes) {
      ClassQueue& queue = queues_[c];
      TxnRecord* head = queue.head();
      if (head != txn && head->deliv == DeliveryState::pending &&
          (head->running || head->exec == ExecState::executed)) {
        abort_transaction(head);
      }
      queue.reorder_before_first_pending(txn);
      // Replayed indices precede every live transaction's index, so no
      // committable transaction can sit ahead of this one.
      OTPDB_CHECK(queue.head() == txn);
    }
    for (ClassId c : classes) queues_[c].remove_head(txn);
    promote_heads(classes);  // before retire: `classes` views the request
    txns_.retire(txn);
    return;
  }

  metrics_.opt_to_gap_ns.add(static_cast<double>(txn->to_delivered_at - txn->opt_delivered_at));

  if (txn->expired) {
    // Dropped at the definitive order: undo any optimistic effects and
    // surface the transaction to the head of every covered queue (the same
    // CC7-CC10 handling a committing transaction would get - the queue
    // invariant keeps committable transactions ahead of pending ones), then
    // retire it once it heads them all. No store effects, no commit hook.
    txn->deliv = DeliveryState::committable;
    if (txn->running) {
      sim_.cancel(txn->completion);
      txn->running = false;
    }
    backend_.abort(txn->tid);  // undo provisional effects, if any
    txn->exec = ExecState::active;
    for (ClassId c : classes) {
      ClassQueue& queue = queues_[c];
      TxnRecord* head = queue.head();
      if (head != txn && head->deliv == DeliveryState::pending &&
          (head->running || head->exec == ExecState::executed)) {
        abort_transaction(head);  // CC8 applies equally ahead of a drop
      }
      queue.reorder_before_first_pending(txn);
    }
    if (heads_all_queues(txn)) {
      retire_expired(txn);
    }
    // Else: a committable predecessor is still executing; the retire happens
    // when its commit promotes this transaction to head (promote_heads).
    if (config_.paranoid_checks) check_invariants(txn);
    return;
  }

  correctness_check_module(txn);
}

void OtpReplica::retire_expired(TxnRecord* txn) {
  OTPDB_CHECK(txn->expired);
  OTPDB_CHECK(txn->deliv == DeliveryState::committable);
  OTPDB_CHECK(heads_all_queues(txn));
  OTPDB_CHECK(!txn->running && txn->exec == ExecState::active);
  const auto classes = txn->request->class_span();
  const TOIndex index = txn->to_index;
  for (ClassId c : classes) queues_[c].remove_head(txn);
  ++metrics_.deadline_expired_queue;
  OTPDB_TRACE("otp") << "site " << self_ << " drops expired txn (" << txn->id.sender << ","
                     << txn->id.seq << ") at index " << index;
  // The slot commits nothing, but the watermarks must advance past it (with a
  // wake): a query waiting on this index would otherwise block forever, and
  // the recovery replay relies on the watermark covering dropped slots. Reads
  // at this index fall back to the predecessor version - a drop is a no-op.
  for (ClassId c : classes) queries_.note_committed(c, index);
  queries_.finish_commit(index);
  promote_heads(classes);  // before retire: `classes` views the request
  txns_.retire(txn);
}

void OtpReplica::promote_heads(std::span<const ClassId> classes) {
  promote_stack_.insert(promote_stack_.end(), classes.begin(), classes.end());
  if (promoting_) return;  // the active drain below picks the new entries up
  promoting_ = true;
  while (!promote_stack_.empty()) {
    const ClassId c = promote_stack_.back();
    promote_stack_.pop_back();
    TxnRecord* next = queues_[c].head();
    if (next == nullptr) continue;
    if (next->expired) {
      // A chained drop: the newly exposed head is itself expired-committable.
      // Its retire pushes its covered classes back onto the worklist.
      if (next->deliv == DeliveryState::committable && heads_all_queues(next)) {
        retire_expired(next);
      }
      continue;
    }
    try_execute(next);
  }
  promoting_ = false;
}

void OtpReplica::crash_recover_reset() {
  txns_.for_each_live([this](TxnRecord* txn) {
    if (txn->running) sim_.cancel(txn->completion);
  });
  txns_.clear();
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    queues_[c] = ClassQueue(static_cast<ClassId>(c));
  }
  backend_.clear_provisional();
  queries_.reset_volatile();
  // Catch-up resumes just above the committed floor: wind the virtual
  // service clock back there, so every later drop is re-derived identically.
  service_clock_.rewind(queries_.committed_floor());
  promote_stack_.clear();
  promoting_ = false;
  admission_.reset();
}

void OtpReplica::restart_from_disk(std::span<const TOIndex> class_watermarks,
                                   TOIndex durable_floor) {
  crash_recover_reset();  // volatile state is equally gone on a cold restart
  queries_.restore_watermarks(class_watermarks, durable_floor);
  service_clock_.reset(durable_floor);  // RAM is gone, and the clock with it
}

void OtpReplica::correctness_check_module(TxnRecord* txn) {
  if (txn->exec == ExecState::executed) {  // CC2 (an executed txn heads all its queues)
    OTPDB_CHECK(heads_all_queues(txn));
    txn->deliv = DeliveryState::committable;
    commit(txn);  // CC3-CC4
    return;
  }
  txn->deliv = DeliveryState::committable;  // CC6
  bool moved = false;
  for (ClassId c : txn->request->class_span()) {
    ClassQueue& queue = queues_[c];
    OTPDB_ASSERT(queue.contains(txn));
    TxnRecord* head = queue.head();
    // CC7: a pending head that has produced (or is producing) optimistic
    // effects ahead of txn is wrongly ordered - undo it (CC8). A pending head
    // that never started (a multi-class transaction waiting on another queue)
    // has nothing to undo; CC10 simply reorders past it.
    if (head != txn && head->deliv == DeliveryState::pending &&
        (head->running || head->exec == ExecState::executed)) {
      abort_transaction(head);  // CC8
    }
    moved |= queue.reorder_before_first_pending(txn);  // CC10
  }
  if (moved) ++metrics_.mismatch_reorders;
  if (!txn->running && heads_all_queues(txn)) {  // CC11 (unless already executing)
    submit_execution(txn);                       // CC12
  }
  if (config_.paranoid_checks) check_invariants(txn);
}

// ---------------------------------------------------------------------------
// Execution, abort (undo), commit
// ---------------------------------------------------------------------------

bool OtpReplica::heads_all_queues(const TxnRecord* txn) const {
  for (ClassId c : txn->request->class_span()) {
    if (queues_[c].head() != txn) return false;
  }
  return true;
}

void OtpReplica::try_execute(TxnRecord* txn) {
  if (txn->expired) return;  // dropped at TO-delivery: retired, never executed
  if (txn->running || txn->exec != ExecState::active) return;
  if (!heads_all_queues(txn)) return;
  submit_execution(txn);
}

void OtpReplica::submit_execution(TxnRecord* txn) {
  OTPDB_CHECK(!txn->running);
  OTPDB_CHECK(txn->exec == ExecState::active);
  OTPDB_CHECK(heads_all_queues(txn));
  txn->running = true;
  ++txn->attempts;
  if (txn->attempts > 1) ++metrics_.reexecutions;
  // Apply the stored procedure's effects as provisional versions now; the
  // completion event models the execution cost. An abort in between rolls the
  // provisional versions back, exactly like undo-based recovery.
  txn->last_reads.clear();  // a re-execution logs only its own reads
  ReadLog* const reads = commit_hook_ ? &txn->last_reads : nullptr;  // the checker's read sets
  const TxnRequest& request = *txn->request;
  const Procedure& procedure = registry_.get(request.proc);
  if (request.multi_class()) {
    TxnContext ctx(store_, catalog_, request.class_span(), txn->tid, request.args, reads);
    procedure(ctx);
  } else {
    TxnContext ctx(store_, catalog_, txn->tid, request.klass, request.args, reads);
    procedure(ctx);
  }
  txn->completion =
      sim_.schedule_after(request.exec_duration, [this, txn] { execution_module(txn); });
}

void OtpReplica::abort_transaction(TxnRecord* txn) {
  // CC8 preconditions: the wrongly ordered transaction is pending and has
  // optimistic effects to undo - which implies it heads all its queues.
  OTPDB_CHECK(txn->deliv == DeliveryState::pending);
  OTPDB_CHECK(txn->running || txn->exec == ExecState::executed);
  OTPDB_ASSERT(heads_all_queues(txn));
  if (txn->running) {
    sim_.cancel(txn->completion);
    txn->running = false;
  }
  backend_.abort(txn->tid);  // undo provisional effects
  txn->exec = ExecState::active;
  ++metrics_.aborts;
  OTPDB_TRACE("otp") << "site " << self_ << " aborts txn (" << txn->id.sender << ","
                     << txn->id.seq << ") for rescheduling";
}

void OtpReplica::commit(TxnRecord* txn) {
  OTPDB_CHECK(txn->exec == ExecState::executed);
  OTPDB_CHECK(txn->deliv == DeliveryState::committable);
  OTPDB_CHECK(txn->to_index > 0);
  OTPDB_CHECK(heads_all_queues(txn));
  const auto classes = txn->request->class_span();

  txn->committed_at = sim_.now();
  if (commit_hook_) {
    fill_commit_record(commit_record_, self_, *txn, store_.provisional_writes(txn->tid));
  }

  backend_.commit(txn->tid, txn->to_index, classes, queries_.gc_horizon());
  for (ClassId c : classes) queues_[c].remove_head(txn);

  ++metrics_.committed;
  if (txn->request->origin == self_) {
    const double latency = static_cast<double>(txn->committed_at - txn->request->submitted_at);
    metrics_.commit_latency_ns.add(latency);
    metrics_.commit_latency_percentiles_ns.add(latency);
  }
  // Time spent fully executed but waiting for the definitive order: the part
  // of the broadcast's coordination cost the overlap failed to hide.
  metrics_.commit_wait_ns.add(static_cast<double>(txn->committed_at - txn->executed_at));
  if (commit_hook_) commit_hook_(commit_record_);

  const TOIndex committed_index = txn->to_index;

  // Advance every covered class watermark before waking waiters, so a query
  // spanning several covered classes never observes a half-committed state.
  for (ClassId c : classes) queries_.note_committed(c, committed_index);
  queries_.finish_commit(committed_index);
  if (config_.paranoid_checks) check_invariants(txn);
  // E3/CC4: removing txn may promote the next head of every covered queue to
  // heads-all status; start whichever can now run, and retire expired
  // committable heads exposed by the removal (promote_heads' guards make the
  // per-class passes idempotent for successors sharing several classes).
  // Before retire: `classes` views the request the retire drops.
  promote_heads(classes);
  txns_.retire(txn);  // txn's slot is reusable beyond this point
}

void OtpReplica::check_invariants(const TxnRecord* txn) const {
  for (ClassId c : txn->request->class_span()) queues_[c].check_invariants();
}

}  // namespace otpdb
