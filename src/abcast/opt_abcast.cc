#include "abcast/opt_abcast.h"

#include <algorithm>

#include "abcast/channels.h"
#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

OptAbcast::OptAbcast(Simulator& sim, Network& net, FailureDetector& fd, SiteId self,
                     OptAbcastConfig config)
    : sim_(sim),
      net_(net),
      self_(self),
      config_(config),
      consensus_(sim, net, fd, self, config.consensus),
      msgs_(net.site_count()) {
  net_.subscribe(self_, kChannelData, [this](const Message& m) { on_data(m); });
  net_.subscribe(self_, kChannelRecovery, [this](const Message& m) { on_recovery_message(m); });
  consensus_.set_on_decide(
      [this](std::uint64_t inst, const SharedSequence& seq) { on_decide(inst, seq); });
}

MsgId OptAbcast::broadcast(PayloadPtr payload) {
  ++stats_.broadcasts;
  ++own_inflight_;  // decremented when this site TO-delivers the message
  return net_.multicast(self_, kChannelData, std::move(payload));
}

void OptAbcast::set_callbacks(AbcastCallbacks callbacks) { callbacks_ = std::move(callbacks); }

OptAbcast::MsgState& OptAbcast::state(const MsgId& id) { return msgs_[id.sender][id.seq]; }

void OptAbcast::on_data(const Message& msg) {
  MsgState& st = state(msg.id);  // single lookup for the whole event
  if (st.arrived) return;        // late retransmit of a fetched body
  st.arrived = true;
  st.body = msg.payload;
  st.opt_time = sim_.now();
  ++stats_.opt_delivered;
  if (callbacks_.opt_deliver) callbacks_.opt_deliver(msg);

  if (st.ordered) {
    // Already definitively ordered by a decided stage; its TO-delivery may
    // have been waiting for this arrival (Local Order).
    drain_decided();
  } else {
    pending_.emplace_back(msg.id, &st);
    consider_stage();
  }
}

void OptAbcast::consider_stage() {
  if (stage_timer_armed_ || pending_.empty()) return;
  if (next_propose_ - next_apply() >= config_.max_outstanding_stages) return;
  if (config_.batch_delay > 0) {
    stage_timer_armed_ = true;
    // Epoch-aligned batching: open stages at global multiples of batch_delay
    // so every site evaluates the same alignment cutoff.
    const SimTime boundary = (sim_.now() / config_.batch_delay + 1) * config_.batch_delay;
    sim_.schedule_at(boundary, [this] {
      stage_timer_armed_ = false;
      start_stage();
    });
  } else {
    start_stage();
  }
}

void OptAbcast::start_stage() {
  if (pending_.empty()) return;
  if (next_propose_ - next_apply() >= config_.max_outstanding_stages) return;
  // Propose aged messages (arrived before cutoff) not already sitting in an
  // undecided stage; fresher arrivals wait so all sites propose the same set.
  const SimTime cutoff = sim_.now() - config_.alignment_window;
  std::vector<MsgId>& batch = proposal_scratch_;
  batch.clear();
  for (const auto& [id, st] : pending_) {
    if (batch.size() >= config_.max_batch) break;
    if (st->opt_time > cutoff) break;  // arrival order: the rest is fresher
    if (st->in_proposal) continue;
    st->in_proposal = true;
    batch.push_back(id);
  }
  if (batch.empty()) {
    // Everything proposable is too fresh (or already in flight); retry at a
    // later boundary.
    if (!stage_timer_armed_) {
      stage_timer_armed_ = true;
      const SimTime step = std::max(config_.batch_delay, config_.alignment_window);
      const SimTime boundary = (sim_.now() / step + 1) * step;
      sim_.schedule_at(boundary, [this] {
        stage_timer_armed_ = false;
        start_stage();
      });
    }
    return;
  }
  const std::uint64_t inst = next_propose_++;
  // Built once, exactly sized: the proposal, and the decision when it wins,
  // share this sequence for the rest of the run.
  auto proposal = std::make_shared<const ConsensusHost::Sequence>(batch);
  my_proposals_[inst] = proposal;
  OTPDB_TRACE("optabcast") << "site " << self_ << " proposes stage " << inst << " with "
                           << proposal->size() << " msgs";
  consensus_.propose(inst, std::move(proposal));
  consider_stage();  // maybe pipeline another stage for the remaining backlog
}

void OptAbcast::on_decide(std::uint64_t inst, const SharedSequence& sequence) {
  // A decision may arrive twice on a recovering site: once through the
  // catch-up response and once through its own consensus participation.
  // Consensus agreement guarantees both carry the same sequence; apply once.
  if (inst < next_apply()) return;
  if (inst == next_apply()) {
    apply_decision(sequence);  // in order: no need to buffer it
  } else {
    decided_buffer_.emplace(inst, sequence);
  }
  apply_buffered();
  drain_decided();
  consider_stage();
}

void OptAbcast::apply_buffered() {
  // Every buffered stage is >= next_apply(), so the map's first entry is the
  // only candidate.
  auto it = decided_buffer_.begin();
  while (it != decided_buffer_.end() && it->first == next_apply()) {
    apply_decision(std::move(it->second));
    it = decided_buffer_.erase(it);
  }
}

void OptAbcast::apply_decision(SharedSequence sequence) {
  const std::uint64_t inst = next_apply();
  for (const MsgId& id : *sequence) {
    // With pipelined stages a message can appear in two decided sequences
    // (proposed for stage r+1 at this site while stage r's decision, formed
    // elsewhere, already contained it). Deliver on first occurrence only;
    // this is deterministic because every site applies decisions in stage
    // order.
    MsgState& st = state(id);  // may create: decision can precede the body
    if (st.ordered) continue;
    st.ordered = true;
    st.in_proposal = false;
    decided_queue_.emplace_back(id, &st);
  }
  // Messages this site proposed for the stage but the decision left out roll
  // back to proposable state (they will enter a later stage).
  auto mine = my_proposals_.find(inst);
  if (mine != my_proposals_.end()) {
    for (const MsgId& id : *mine->second) {
      MsgState& st = state(id);
      if (!st.ordered) st.in_proposal = false;
    }
    my_proposals_.erase(mine);
  }
  // Keep next_propose_ monotone across sites that never proposed this stage.
  next_propose_ = std::max(next_propose_, inst + 1);
  // Drop ordered messages from the local pending list (they may sit at any
  // position if the tentative order disagreed with the decision).
  std::erase_if(pending_, [](const MsgRef& p) { return p.second->ordered; });
  decision_log_.push_back(std::move(sequence));
}

void OptAbcast::drain_decided() {
  // Collect the deliverable prefix first, then dispatch the whole burst in
  // one batched callback when the receiver supports it: a decided stage
  // drains as one pass over the replica's class queues instead of one
  // std::function hop per message. Nothing can extend the deliverable prefix
  // synchronously during dispatch (decisions and arrivals ride on network
  // events), so collect-then-dispatch preserves per-message semantics.
  drain_scratch_.clear();
  while (!decided_queue_.empty()) {
    const auto [id, st] = decided_queue_.front();
    if (!st->arrived) {
      if (next_index_ > durable_floor_) break;
      // Tombstone: this slot's effects are already on the replica's disk, so
      // the definitive index is assigned without a body. Marking the entry
      // arrived suppresses a late Opt-delivery if the original multicast (or
      // a fetched copy) shows up afterwards.
      st->arrived = true;
      st->opt_time = sim_.now();
      ++stats_.recovery_tombstones;
    }
    decided_queue_.pop_front();
    const TOIndex index = next_index_++;
    // The > 0 guard covers catch-up after a crash: pre-crash broadcasts were
    // wiped from the counter by crash_reset but still TO-deliver here.
    if (id.sender == self_ && own_inflight_ > 0) --own_inflight_;
    ++stats_.to_delivered;
    stats_.opt_to_gap_total_ns += sim_.now() - st->opt_time;
    drain_scratch_.emplace_back(id, index);
  }
  dispatch_to_deliver(callbacks_, drain_scratch_);
  if (!decided_queue_.empty()) {
    // The definitive order references messages whose bodies never reached us
    // (we were down when they were multicast, or they are still in flight).
    // Fetch them from a peer so TO-delivery can proceed (Local Order
    // preserved: fetched bodies are Opt-delivered first).
    request_missing_bodies();
  }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

namespace {

enum class RecoveryKind : std::uint8_t {
  catch_up_request,
  catch_up_response,
  body_request,
  body_response,
};

struct RecoveryPayload final : Payload {
  RecoveryKind kind = RecoveryKind::catch_up_request;
  std::uint64_t from_stage = 0;
  std::vector<std::pair<std::uint64_t, ConsensusHost::Value>> decisions;  // shared
  std::vector<MsgId> subjects;                         // body_request
  std::vector<std::pair<MsgId, PayloadPtr>> bodies;    // body_response
};

/// How many missing bodies one request fetches.
constexpr std::size_t kBodyBatch = 64;

}  // namespace

void OptAbcast::crash_reset() {
  pending_.clear();
  decided_queue_.clear();
  for (auto& table : msgs_) table.clear();  // after the queues: they point into it
  decided_buffer_.clear();
  my_proposals_.clear();
  next_propose_ = 0;
  next_index_ = 1;
  own_inflight_ = 0;
  stage_timer_armed_ = false;  // any armed timer re-checks state when it fires
  decision_log_.clear();
  if (body_request_outstanding_) wheel_.cancel(body_retry_timer_);
  body_request_outstanding_ = false;
  body_request_attempts_ = 0;
  recovering_ = false;
  durable_floor_ = 0;
  consensus_.crash_reset();
}

void OptAbcast::begin_recovery(TOIndex durable_floor) {
  recovering_ = true;
  durable_floor_ = durable_floor;
  send_catch_up_request();
}

void OptAbcast::send_catch_up_request() {
  if (!recovering_) return;
  ++catch_up_round_;
  auto request = std::make_shared<RecoveryPayload>();
  request->kind = RecoveryKind::catch_up_request;
  request->from_stage = next_apply();
  net_.multicast(self_, kChannelRecovery, std::move(request));
  // Retry until caught up: responses are idempotent, and load may be idle.
  sim_.schedule_after(100 * kMillisecond, [this] { send_catch_up_request(); });
}

void OptAbcast::request_missing_bodies() {
  if (body_request_outstanding_ || net_.site_count() < 2) return;
  body_request_outstanding_ = true;
  auto request = std::make_shared<RecoveryPayload>();
  request->kind = RecoveryKind::body_request;
  for (const auto& [id, st] : decided_queue_) {
    if (request->subjects.size() >= kBodyBatch) break;
    if (!st->arrived) request->subjects.push_back(id);
  }
  OTPDB_DEBUG("optabcast") << "site " << self_ << " requests " << request->subjects.size()
                           << " missing bodies";
  // Ask one peer (rotating across retries); a single responder keeps the
  // shared segment free of duplicate replies.
  const auto n = static_cast<SiteId>(net_.site_count());
  const SiteId peer = (self_ + 1 + body_request_attempts_ % (n - 1)) % n;
  net_.unicast(self_, peer, kChannelRecovery, std::move(request));
  // Retry against the next peer if this one does not answer (crashed, or the
  // reply was lost); a received response cancels the timer.
  body_retry_timer_ = wheel_.schedule_after(50 * kMillisecond, [this] {
    body_request_outstanding_ = false;
    ++body_request_attempts_;
    drain_decided();
  });
}

void OptAbcast::deliver_fetched_body(const MsgId& id, PayloadPtr payload) {
  MsgState& st = state(id);
  if (st.arrived) return;
  st.arrived = true;
  st.body = payload;
  st.opt_time = sim_.now();
  ++stats_.opt_delivered;
  ++stats_.recovery_bodies_fetched;
  if (callbacks_.opt_deliver) {
    callbacks_.opt_deliver(Message{id, id.sender, kChannelData, std::move(payload)});
  }
}

void OptAbcast::on_recovery_message(const Message& msg) {
  const auto* p = payload_cast<RecoveryPayload>(msg);
  OTPDB_CHECK(p != nullptr);
  switch (p->kind) {
    case RecoveryKind::catch_up_request: {
      if (msg.from == self_) return;
      // Respond even with an empty log: an empty response tells the
      // requester it is already caught up.
      auto response = std::make_shared<RecoveryPayload>();
      response->kind = RecoveryKind::catch_up_response;
      if (p->from_stage < decision_log_.size()) {
        response->decisions.reserve(decision_log_.size() - p->from_stage);
      }
      for (std::uint64_t stage = p->from_stage; stage < decision_log_.size(); ++stage) {
        response->decisions.emplace_back(stage, decision_log_[stage]);
      }
      net_.unicast(self_, msg.from, kChannelRecovery, std::move(response));
      break;
    }
    case RecoveryKind::catch_up_response: {
      bool progressed = false;
      for (const auto& [stage, sequence] : p->decisions) {
        if (stage < next_apply() || decided_buffer_.contains(stage)) continue;
        decided_buffer_.emplace(stage, sequence);
        progressed = true;
      }
      apply_buffered();
      drain_decided();
      consider_stage();
      // Caught up once a response brings nothing new and no delivery blocks.
      if (recovering_ && !progressed && decided_queue_.empty()) recovering_ = false;
      break;
    }
    case RecoveryKind::body_request: {
      if (msg.from == self_) return;
      auto response = std::make_shared<RecoveryPayload>();
      response->kind = RecoveryKind::body_response;
      for (const MsgId& id : p->subjects) {
        const MsgState* st = msgs_[id.sender].find(id.seq);
        if (st != nullptr && st->body) response->bodies.emplace_back(id, st->body);
      }
      OTPDB_DEBUG("optabcast") << "site " << self_ << " serves " << response->bodies.size()
                               << "/" << p->subjects.size() << " bodies to " << msg.from;
      if (!response->bodies.empty()) {
        net_.unicast(self_, msg.from, kChannelRecovery, std::move(response));
      }
      break;
    }
    case RecoveryKind::body_response: {
      if (body_request_outstanding_) {
        wheel_.cancel(body_retry_timer_);
        body_request_outstanding_ = false;
        body_request_attempts_ = 0;
      }
      for (const auto& [id, body] : p->bodies) deliver_fetched_body(id, body);
      drain_decided();
      break;
    }
  }
}

}  // namespace otpdb
