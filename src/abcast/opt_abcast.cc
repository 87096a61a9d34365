#include "abcast/opt_abcast.h"

#include <algorithm>

#include "abcast/channels.h"
#include "util/assert.h"
#include "util/log.h"

namespace otpdb {
namespace {

/// Cap on messages proposed per stage.
constexpr std::size_t kMaxBatch = 128;

}  // namespace

OptAbcast::OptAbcast(Simulator& sim, Network& net, FailureDetector& fd, SiteId self,
                     OptAbcastConfig config)
    : sim_(sim),
      net_(net),
      fd_(fd),
      self_(self),
      config_(config),
      consensus_(sim, net, self, config.consensus),
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

OptAbcast::MsgState* OptAbcast::state(const MsgId& id) {
  DenseDeque<MsgState>& table = msgs_[id.sender];
  if (!table.trimmed(id.seq)) return &table[id.seq];
  auto it = detached_.find(id);
  return it == detached_.end() ? nullptr : &it->second;
}

const OptAbcast::MsgState* OptAbcast::held(const MsgId& id) const {
  if (const MsgState* st = msgs_[id.sender].find(id.seq)) return st;
  auto it = detached_.find(id);
  return it == detached_.end() ? nullptr : &it->second;
}

void OptAbcast::on_data(const Message& msg) {
  if (need_base_) {
    // Recovering: until a catch-up answer tells which messages the trimmed
    // stages ordered, this may be a late copy of one of them.
    held_back_.push_back(HeldArrival{msg, sim_.now()});
    return;
  }
  const MsgState* st = arrive(msg, sim_.now());
  if (st == nullptr) return;
  if (st->ordered) {
    // Already definitively ordered by a decided stage; its TO-delivery may
    // have been waiting for this arrival (Local Order).
    drain_decided();
  } else {
    consider_stage();
  }
}

OptAbcast::MsgState* OptAbcast::arrive(const Message& msg, SimTime at) {
  MsgState* st = state(msg.id);  // single lookup for the whole event
  if (st == nullptr) {
    // A late copy (a duplicate) of a message a trimmed stage ordered: its
    // slot is gone for good.
    ++late_copies_dropped_;
    return nullptr;
  }
  if (st->arrived) return nullptr;  // late retransmit of a fetched body
  st->arrived = true;
  st->body = msg.payload;
  st->opt_time = at;
  ++stats_.opt_delivered;
  if (callbacks_.opt_deliver) callbacks_.opt_deliver(msg);
  if (!st->ordered) pending_.emplace_back(msg.id, st);
  return st;
}

void OptAbcast::consider_stage() {
  if (need_base_ || stage_timer_armed_ || pending_.empty()) return;
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
  if (need_base_ || pending_.empty()) return;
  if (next_propose_ - next_apply() >= config_.max_outstanding_stages) return;
  // Propose aged messages (arrived before cutoff) not already sitting in an
  // undecided stage; fresher arrivals wait so all sites propose the same set.
  const SimTime cutoff = sim_.now() - config_.alignment_window;
  std::vector<MsgId>& batch = proposal_scratch_;
  batch.clear();
  for (const auto& [id, st] : pending_) {
    if (batch.size() >= kMaxBatch) break;
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
  // The Propose payload owns the sequence: the proposal, and the decision
  // when it wins, share it for the rest of the run.
  my_proposals_[inst] = consensus_.propose(inst, batch);
  OTPDB_TRACE("optabcast") << "site " << self_ << " proposes stage " << inst << " with "
                           << batch.size() << " msgs";
  consider_stage();  // maybe pipeline another stage for the remaining backlog
}

void OptAbcast::on_decide(std::uint64_t inst, const SharedSequence& sequence) {
  if (need_base_) {
    // Recovering: where the order resumes is not known yet. Keep it for the
    // first catch-up answer to place.
    decided_buffer_.emplace(inst, sequence);
    return;
  }
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
  std::size_t fresh = 0;
  for (const MsgId& id : *sequence) {
    // With pipelined stages a message can appear in two decided sequences
    // (proposed for stage r+1 at this site while stage r's decision, formed
    // elsewhere, already contained it). Deliver on first occurrence only;
    // this is deterministic because every site applies decisions in stage
    // order. A trimmed message was delivered by an earlier stage too.
    MsgState* st = state(id);  // may create: decision can precede the body
    if (st == nullptr || st->ordered) continue;
    st->ordered = true;
    st->in_proposal = false;
    decided_queue_.emplace_back(id, st);
    ++fresh;
  }
  if (fresh != sequence->size()) {
    // Log only what the stage newly ordered: a site that re-enters the order
    // at this stage through catch-up has not seen the earlier occurrence.
    auto newly = std::make_shared<ConsensusHost::Sequence>();
    newly->reserve(fresh);
    for (auto it = decided_queue_.end() - static_cast<std::ptrdiff_t>(fresh);
         it != decided_queue_.end(); ++it) {
      newly->push_back(it->first);
    }
    sequence = std::move(newly);
  }
  // Messages this site proposed for the stage but the decision left out roll
  // back to proposable state (they will enter a later stage).
  if (const SharedSequence* mine = my_proposals_.find(inst); mine != nullptr && *mine) {
    for (const MsgId& id : **mine) {
      MsgState* st = state(id);
      if (st != nullptr && !st->ordered) st->in_proposal = false;
    }
  }
  my_proposals_.trim_front(inst + 1);
  // Keep next_propose_ monotone across sites that never proposed this stage.
  next_propose_ = std::max(next_propose_, inst + 1);
  // Drop ordered messages from the local pending list (they may sit at any
  // position if the tentative order disagreed with the decision).
  std::erase_if(pending_, [](const MsgRef& p) { return p.second->ordered; });
  log_.push_back(LoggedStage{std::move(sequence), next_index_ + decided_queue_.size()});
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
      if (next_index_ > replay_floor_) break;
      // Tombstone: this slot's effects are already in the replica's store
      // (at or below its replay floor), so the definitive index is assigned
      // without a body. Marking the entry
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
    st->index = index;  // replaces opt_time, which nothing reads from here on
    st->delivered = true;
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
  maybe_trim();
}

// ---------------------------------------------------------------------------
// Trimming below the stable floor
// ---------------------------------------------------------------------------

OptAbcast::Retained OptAbcast::retained() const {
  Retained r;
  for (const auto& table : msgs_) r.msg_slots += table.size();
  r.detached = detached_.size();
  r.log_stages = log_.size() - log_trimmed_;
  r.instances = consensus_.retained_instances();
  return r;
}

TOIndex OptAbcast::stage_base(std::uint64_t stage) const {
  const std::size_t at = stage - log_base_stage_;
  return at == log_trimmed_ ? trimmed_end_ : log_[at - 1].end;
}

void OptAbcast::maybe_trim() {
  const TOIndex floor = fd_.stable_floor();
  if (floor <= trimmed_floor_ || need_base_) return;
  trimmed_floor_ = floor;
  // Stages whose definitive indices all lie below the floor: every site has
  // committed them, so no catch-up will ask for them again. The stage that
  // holds the floor index stays, so a site re-entering the order always
  // resumes at or below its replay floor.
  while (log_trimmed_ < log_.size() && log_[log_trimmed_].end <= floor) {
    trimmed_end_ = log_[log_trimmed_].end;
    log_[log_trimmed_].sequence = {};
    ++log_trimmed_;
  }
  if (log_trimmed_ > 0 && 2 * log_trimmed_ >= log_.size()) {
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(log_trimmed_));
    log_base_stage_ += log_trimmed_;
    log_trimmed_ = 0;
  }
  consensus_.trim_below(first_retained_stage());
  for (SiteId sender = 0; sender < msgs_.size(); ++sender) trim_sender(sender);
  std::erase_if(detached_, [this](const auto& entry) {
    return entry.second.delivered && entry.second.index < trimmed_end_;
  });
}

void OptAbcast::trim_sender(SiteId sender) {
  DenseDeque<MsgState>& table = msgs_[sender];
  if (table.empty()) return;
  // The front passes slots a trimmed stage ordered (TO-delivered before the
  // first retained stage), and empty slots only on the way to such a slot.
  // It stops at anything still in play: pending, in a proposal, ordered but
  // not yet delivered, or delivered by a retained stage.
  const std::uint64_t first = table.first_key();
  std::uint64_t cut = first;
  std::uint64_t key = first;
  for (const MsgState& st : table) {
    if (st.delivered && st.index < trimmed_end_) {
      cut = key + 1;
    } else if (st.arrived || st.ordered) {
      break;
    }
    ++key;
  }
  if (cut == first) return;
  // A key passed while it holds no message here - never touched since the
  // last trim, or an empty slot - may still receive or order its message;
  // keep it addressable instead of mistaking it for a trimmed one.
  for (key = table.front_key(); key < first; ++key) {
    detached_.emplace(MsgId{sender, key}, MsgState{});
  }
  for (const MsgState& st : table) {
    if (key == cut) break;
    if (!st.arrived && !st.ordered) detached_.emplace(MsgId{sender, key}, MsgState{});
    ++key;
  }
  table.trim_front(cut);
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
  /// Request: the first stage wanted. Response: the first stage included.
  std::uint64_t from_stage = 0;
  TOIndex base_index = 0;  // response: first definitive index of from_stage
  TOIndex end_index = 0;   // response: one past the last index its decisions assign
  /// Response: which messages the stages before from_stage ordered - per
  /// sender, every key below fronts[sender] except those in `unordered`,
  /// and the keys in `ordered` (at or above a front).
  std::vector<std::uint64_t> fronts;
  std::vector<MsgId> unordered;
  std::vector<MsgId> ordered;
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
  detached_.clear();
  log_.clear();
  log_base_stage_ = 0;
  log_trimmed_ = 0;
  trimmed_end_ = 1;
  trimmed_floor_ = 0;
  need_base_ = false;
  held_back_.clear();
  if (body_request_outstanding_) sim_.cancel(body_retry_timer_);
  body_request_outstanding_ = false;
  body_request_attempts_ = 0;
  recovering_ = false;
  replay_floor_ = 0;
  consensus_.crash_reset();
}

void OptAbcast::begin_recovery(TOIndex replay_floor) {
  recovering_ = true;
  need_base_ = net_.site_count() > 1;  // a lone site has nobody to ask
  replay_floor_ = replay_floor;
  send_catch_up_request();
}

void OptAbcast::send_catch_up_request() {
  if (!recovering_) return;
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
  body_retry_timer_ = sim_.schedule_after(50 * kMillisecond, [this] {
    body_request_outstanding_ = false;
    ++body_request_attempts_;
    drain_decided();
  });
}

void OptAbcast::deliver_fetched_body(const MsgId& id, PayloadPtr payload) {
  MsgState* st = state(id);
  if (st == nullptr || st->arrived) return;
  st->arrived = true;
  st->body = payload;
  st->opt_time = sim_.now();
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
      // A site that has not re-entered the order itself cannot place anyone.
      if (msg.from == self_ || need_base_) return;
      // Respond even with nothing to send: an empty response tells the
      // requester it is already caught up. Trimmed stages are gone; every
      // index in them is at or below the requester's replay floor.
      auto response = std::make_shared<RecoveryPayload>();
      response->kind = RecoveryKind::catch_up_response;
      const std::uint64_t first =
          std::min(std::max(p->from_stage, first_retained_stage()), next_apply());
      const TOIndex base = stage_base(first);
      response->from_stage = first;
      response->base_index = base;
      response->end_index = stage_base(next_apply());
      // Which messages the stages before `first` ordered (see RecoveryPayload).
      const auto ordered_before = [base](const MsgState& st) {
        return st.delivered && st.index < base;
      };
      for (SiteId sender = 0; sender < msgs_.size(); ++sender) {
        DenseDeque<MsgState>& table = msgs_[sender];
        response->fronts.push_back(table.front_key());
        std::uint64_t key = table.first_key();
        for (const MsgState& st : table) {
          if (ordered_before(st)) response->ordered.push_back(MsgId{sender, key});
          ++key;
        }
      }
      for (const auto& [id, st] : detached_) {
        if (!ordered_before(st)) response->unordered.push_back(id);
      }
      response->decisions.reserve(next_apply() - first);
      for (std::uint64_t stage = first; stage < next_apply(); ++stage) {
        response->decisions.emplace_back(stage, log_[stage - log_base_stage_].sequence);
      }
      net_.unicast(self_, msg.from, kChannelRecovery, std::move(response));
      break;
    }
    case RecoveryKind::catch_up_response: {
      if (need_base_) {
        // Only an answer whose decisions reach the replay floor places this
        // site: the floor it reported before the crash lets the peers trim
        // every stage that ends at or below it, so a stage up to there that
        // the answer leaves out might be gone before this site could learn
        // it. An answer from a lagging responder is ignored; the request is
        // retried.
        if (p->end_index <= replay_floor_) break;
        // The answer places this site in the definitive order: it resumes
        // at the responder's first retained stage.
        OTPDB_CHECK_MSG(p->base_index <= replay_floor_ + 1,
                        "catch-up resumes above the replay floor: history was trimmed");
        need_base_ = false;
        log_base_stage_ = p->from_stage;
        next_index_ = trimmed_end_ = p->base_index;
        next_propose_ = std::max(next_propose_, p->from_stage);
        decided_buffer_.erase(decided_buffer_.begin(), decided_buffer_.lower_bound(p->from_stage));
        // Adopt the responder's view of what the skipped stages ordered, so
        // a late copy of such a message is dropped rather than proposed again.
        for (SiteId sender = 0; sender < msgs_.size(); ++sender) {
          msgs_[sender].trim_front(p->fronts[sender]);
        }
        for (const MsgId& id : p->unordered) detached_.emplace(id, MsgState{});
        for (const MsgId& id : p->ordered) {
          MsgState& st = msgs_[id.sender][id.seq];
          st.arrived = st.ordered = st.delivered = true;
          st.index = p->base_index - 1;  // some index before the resume point
        }
        for (const HeldArrival& held : held_back_) arrive(held.msg, held.at);
        held_back_.clear();
      }
      bool progressed = false;
      for (const auto& [stage, sequence] : p->decisions) {
        if (stage < next_apply()) continue;
        // Prefer the logged sequence to one learned by consensus meanwhile:
        // it leaves out messages ordered by stages this site never saw.
        progressed |= decided_buffer_.insert_or_assign(stage, sequence).second;
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
        const MsgState* st = held(id);
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
      if (need_base_) return;  // answers a request sent before the crash
      if (body_request_outstanding_) {
        sim_.cancel(body_retry_timer_);
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
