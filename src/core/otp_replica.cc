#include "core/otp_replica.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

namespace {
constexpr std::uint32_t kIdle = std::numeric_limits<std::uint32_t>::max();
}  // namespace

OtpReplica::OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                       const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                       SiteId self, OtpReplicaConfig config)
    : OtpReplica(sim, abcast, storage, catalog, registry, self, config,
                 Serialize::at_opt_delivery) {}

OtpReplica::OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                       const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                       SiteId self, OtpReplicaConfig config, Serialize serialize, Keys keys)
    : sim_(sim),
      abcast_(abcast),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      config_(config),
      serialize_at_to_(serialize == Serialize::at_to_delivery),
      by_object_(keys == Keys::objects),
      service_clock_(by_object_ ? catalog.object_count() : catalog.class_count()),
      queries_(by_object_ ? QueryEngine(sim, store_, catalog.object_count(),
                                        [](ObjectId obj) { return QueryEngine::Domain{obj}; },
                                        metrics_)
                          : QueryEngine(sim, store_, catalog, metrics_)) {
  if (by_object_) {
    queue_slot_.assign(catalog.object_count(), kIdle);
  } else {
    queues_.reserve(catalog.class_count());
    for (std::size_t c = 0; c < catalog.class_count(); ++c) {
      queues_.emplace_back(static_cast<ClassId>(c), &queue_blocks_);
    }
  }
  abcast_.set_callbacks(AbcastCallbacks{
      [this](const Message& msg) { on_opt_deliver(msg); },
      [this](const MsgId& id, TOIndex index) { on_to_deliver(id, index); },
      [this](std::span<const ToDelivery> batch) { on_to_deliver_batch(batch); },
  });
}

SubmitResult OtpReplica::gate_and_broadcast(ProcId proc, ClassId klass,
                                            std::vector<ClassId> classes,
                                            std::vector<ObjectId> access_set, TxnArgs args,
                                            SimTime exec_duration, SimTime deadline) {
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  auto request = requests_.acquire();
  request->proc = proc;
  request->klass = klass;
  request->classes = std::move(classes);
  request->args = std::move(args);
  request->origin = self_;
  request->client_seq = next_client_seq_++;
  request->submitted_at = sim_.now();
  request->exec_duration = exec_duration;
  request->deadline = deadline;
  request->access_set = std::move(access_set);
  ++metrics_.submitted_updates;
  abcast_.broadcast(std::move(request));
  return SubmitResult::admitted;
}

SubmitResult OtpReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                       SimTime exec_duration, SimTime deadline) {
  OTPDB_CHECK(klass < catalog_.class_count());
  return gate_and_broadcast(proc, klass, {}, {}, std::move(args), exec_duration, deadline);
}

SubmitResult OtpReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                             TxnArgs args, SimTime exec_duration,
                                             SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK(classes.back() < catalog_.class_count());
  if (classes.size() == 1) {  // the base model's case: no class vector needed
    return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
  }
  const ClassId primary = classes.front();
  return gate_and_broadcast(proc, primary, std::move(classes), {}, std::move(args),
                            exec_duration, deadline);
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
  OTPDB_CHECK_MSG(!by_object_ || !txn->request->access_set.empty(),
                  "lock-table engine requires pre-declared access sets");
  // S1: append to every covered queue at one instant, classes in ascending
  // order (identical at all sites, so the head-of-all gating is
  // deadlock-free).
  for (QueueKey key : keys_of(txn)) {
    ClassQueue& q = bind_queue(key);
    // A record holds one position per queue: an extractor's access set must
    // not name an object twice.
    OTPDB_CHECK_MSG(!q.contains(txn), "an access set declares an object twice");
    q.append(txn);
  }
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
  const QueueKeys keys = keys_of(txn);
  queries_.advance_to_index(index);
  for (QueueKey key : keys) queries_.note_to_delivered(key, index);

  // Deadline budget: a drop is decided by the definitive order alone.
  // Replays at or below the committed floor are not charged again - a warm
  // recovery wound the clock back to that floor.
  if (!service_clock_.admit(*txn->request, keys, index, queries_.committed_floor())) {
    txn->expired = true;  // dropped: occupies no service time
  }

  // Crash-recovery replay: a TO-delivery at or below the covered keys'
  // commit watermarks was already committed before the crash - acknowledge
  // it without re-executing (its versions are in the store). The queue
  // handling mirrors CC7-CC12 per covered queue: a wrongly ordered live head
  // is undone, the replayed transaction surfaces to the head of every covered
  // queue, and is then silently retired.
  if (index <= queries_.last_committed(keys.front())) {
#ifndef NDEBUG
    // Commits are atomic across the covered keys, and each key commits in
    // definitive order, so the watermarks agree.
    for (QueueKey key : keys) OTPDB_ASSERT(index <= queries_.last_committed(key));
#endif
    txn->deliv = DeliveryState::committable;
    if (txn->running) {
      sim_.cancel(txn->completion);
      txn->running = false;
    }
    backend_.abort(txn->tid);  // drop any provisional re-execution of replayed work
    reorder_before_pending(txn);
    // Replayed indices precede every live transaction's index, so no
    // committable transaction can sit ahead of this one.
    OTPDB_CHECK(heads_all_queues(txn));
    for (QueueKey key : keys) pop_head(key, txn);
    promote_heads(keys);  // before retire: `keys` views the request
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
    reorder_before_pending(txn);  // CC8 applies equally ahead of a drop
    if (heads_all_queues(txn)) {
      retire_expired(txn);  // txn is retired: nothing left to check
      return;
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
  const QueueKeys keys = keys_of(txn);
  const TOIndex index = txn->to_index;
  for (QueueKey key : keys) pop_head(key, txn);
  ++metrics_.deadline_expired_queue;
  OTPDB_TRACE("otp") << "site " << self_ << " drops expired txn (" << txn->id.sender << ","
                     << txn->id.seq << ") at index " << index;
  // The slot commits nothing, but the watermarks must advance past it (with a
  // wake): a query waiting on this index would otherwise block forever, and
  // the recovery replay relies on the watermark covering dropped slots. Reads
  // at this index fall back to the predecessor version - a drop is a no-op.
  for (QueueKey key : keys) queries_.note_committed(key, index);
  queries_.finish_commit(index);
  promote_heads(keys);  // before retire: `keys` views the request
  txns_.retire(txn);
}

void OtpReplica::promote_heads(QueueKeys keys) {
  promote_stack_.insert(promote_stack_.end(), keys.begin(), keys.end());
  if (promoting_) return;  // the active drain below picks the new entries up
  promoting_ = true;
  while (!promote_stack_.empty()) {
    const QueueKey key = promote_stack_.back();
    promote_stack_.pop_back();
    if (find_queue(key) == nullptr) continue;  // an idle object
    TxnRecord* next = queue(key).head();
    if (next == nullptr) continue;
    if (next->expired) {
      // A chained drop: the newly exposed head is itself expired-committable.
      // Its retire pushes its covered keys back onto the worklist.
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
  if (by_object_) {
    queues_.clear();
    free_slots_.clear();
    std::fill(queue_slot_.begin(), queue_slot_.end(), kIdle);
  } else {
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      queues_[c] = ClassQueue(static_cast<ClassId>(c), &queue_blocks_);
    }
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

void OtpReplica::restart_from_disk(TOIndex durable_floor) {
  crash_recover_reset();  // volatile state is equally gone on a cold restart
  queries_.restore_watermarks(durable_floor);
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
  if (reorder_before_pending(txn)) ++metrics_.mismatch_reorders;  // CC7-CC10
  if (!txn->running && heads_all_queues(txn)) {  // CC11 (unless already executing)
    submit_execution(txn);                       // CC12
  }
  if (config_.paranoid_checks) check_invariants(txn);
}

bool OtpReplica::reorder_before_pending(TxnRecord* txn) {
  bool moved = false;
  for (QueueKey key : keys_of(txn)) {
    ClassQueue& q = queue(key);
    OTPDB_ASSERT(q.contains(txn));
    TxnRecord* head = q.head();
    // CC7: a pending head that has produced (or is producing) optimistic
    // effects ahead of txn is wrongly ordered - undo it (CC8). A pending head
    // that never started (a multi-class transaction waiting on another queue)
    // has nothing to undo; CC10 simply reorders past it.
    if (head != txn && head->deliv == DeliveryState::pending &&
        (head->running || head->exec == ExecState::executed)) {
      abort_transaction(head);  // CC8
    }
    moved |= q.reorder_before_first_pending(txn);  // CC10
  }
  return moved;
}

// ---------------------------------------------------------------------------
// Execution, abort (undo), commit
// ---------------------------------------------------------------------------

QueueKeys OtpReplica::keys_of(const TxnRecord* txn) const {
  const TxnRequest& request = *txn->request;
  return by_object_ ? QueueKeys(std::span<const ObjectId>(request.access_set))
                    : QueueKeys(request.class_span());
}

const ClassQueue* OtpReplica::find_queue(QueueKey key) const {
  if (!by_object_) return &queues_[key];
  if (key >= queue_slot_.size() || queue_slot_[key] == kIdle) return nullptr;
  return &queues_[queue_slot_[key]];
}

ClassQueue& OtpReplica::bind_queue(QueueKey key) {
  if (by_object_) {
    // A user-supplied extractor declaring an out-of-catalog id must fail
    // loudly here, not index past the object table.
    OTPDB_CHECK_MSG(key < queue_slot_.size(), "declared object outside the catalog");
    if (queue_slot_[key] == kIdle) {
      if (free_slots_.empty()) {
        free_slots_.push_back(static_cast<std::uint32_t>(queues_.size()));
        queues_.emplace_back(static_cast<ClassId>(queues_.size()), &queue_blocks_);
      }
      queue_slot_[key] = free_slots_.back();
      free_slots_.pop_back();
    }
  }
  return queue(key);
}

void OtpReplica::pop_head(QueueKey key, TxnRecord* txn) {
  ClassQueue& q = queue(key);
  q.remove_head(txn);
  if (by_object_ && q.empty()) {
    free_slots_.push_back(queue_slot_[key]);
    queue_slot_[key] = kIdle;
  }
}

bool OtpReplica::heads_all_queues(const TxnRecord* txn) const {
  for (QueueKey key : keys_of(txn)) {
    const ClassQueue* q = find_queue(key);
    if (q == nullptr || q->head() != txn) return false;
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
  if (by_object_) {  // the procedure may touch exactly its declared objects
    TxnContext ctx(store_, request.access_set, txn->tid, request.klass, request.args, reads);
    procedure(ctx);
  } else if (request.multi_class()) {
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
  const QueueKeys keys = keys_of(txn);

  txn->committed_at = sim_.now();
  if (commit_hook_) {
    fill_commit_record(commit_record_, self_, *txn, store_.provisional_writes(txn->tid));
  }

  backend_.commit(txn->tid, txn->to_index, queries_.committed_floor(), queries_.gc_horizon());
  for (QueueKey key : keys) pop_head(key, txn);

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

  // Advance every covered watermark before waking waiters, so a query
  // spanning several covered domains never observes a half-committed state.
  for (QueueKey key : keys) queries_.note_committed(key, committed_index);
  queries_.finish_commit(committed_index);
  if (config_.paranoid_checks) check_invariants(txn);
  // E3/CC4: removing txn may promote the next head of every covered queue to
  // heads-all status; start whichever can now run, and retire expired
  // committable heads exposed by the removal (promote_heads' guards make the
  // per-key passes idempotent for successors sharing several keys).
  // Before retire: `keys` views the request the retire drops.
  promote_heads(keys);
  txns_.retire(txn);  // txn's slot is reusable beyond this point
}

void OtpReplica::check_invariants(const TxnRecord* txn) const {
  for (QueueKey key : keys_of(txn)) {
    if (const ClassQueue* q = find_queue(key)) q->check_invariants();
  }
}

}  // namespace otpdb
