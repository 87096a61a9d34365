#include "abcast/consensus.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "abcast/channels.h"
#include "util/assert.h"
#include "util/log.h"

namespace otpdb {
namespace {

/// The round-advance timeout grows by this factor per round, up to the cap.
constexpr double kRoundBackoff = 2.0;
constexpr SimTime kMaxRoundTimeout = 2 * kSecond;

std::uint64_t bit(SiteId site) { return std::uint64_t{1} << site; }

std::size_t count(std::uint64_t sites) { return static_cast<std::size_t>(std::popcount(sites)); }

}  // namespace

struct ConsensusHost::ConsensusPayload final : Payload {
  Kind kind = Kind::propose;
  std::uint64_t inst = 0;
  std::uint64_t round = 0;
  std::uint64_t ts = 0;
  /// The value of an estimate, CoordProp or Decision; null in acks and
  /// proposals. Never a Value into this payload itself, which would keep the
  /// payload alive for good.
  Value value;
  /// A Propose's own sequence, handed out as a Value that shares the
  /// payload's ownership (aliasing shared_ptr: no allocation).
  Sequence proposal;

  /// Back to a blank payload for the pool; the proposal keeps its capacity.
  void clear() {
    kind = Kind::propose;
    inst = round = ts = 0;
    value = {};
    proposal.clear();
  }
};

ConsensusHost::ConsensusHost(Simulator& sim, Network& net, SiteId self, ConsensusConfig config)
    : sim_(sim), net_(net), self_(self), config_(config) {
  OTPDB_CHECK_MSG(net_.site_count() <= kMaxSites, "consensus supports at most 64 sites");
  net_.subscribe(self_, kChannelConsensus, [this](const Message& m) { on_message(m); });
}

ConsensusHost::~ConsensusHost() = default;

PayloadPtr ConsensusHost::make_payload(Kind kind, std::uint64_t inst, std::uint64_t round,
                                       std::uint64_t ts, Value value) {
  auto p = payloads_.acquire();
  p->kind = kind;
  p->inst = inst;
  p->round = round;
  p->ts = ts;
  p->value = std::move(value);
  return p;
}

ConsensusHost::Instance& ConsensusHost::instance(std::uint64_t inst) { return instances_[inst]; }

ConsensusHost::Round* ConsensusHost::find_round(Instance& in, std::uint64_t round) {
  if (in.coordinated.number == round) return &in.coordinated;
  for (Round& r : in.later_rounds) {
    if (r.number == round) return &r;
  }
  return nullptr;
}

ConsensusHost::Round& ConsensusHost::round_state(Instance& in, std::uint64_t round) {
  if (Round* r = find_round(in, round)) return *r;
  Round& r = in.coordinated.number == Round::kUnused ? in.coordinated
                                                     : in.later_rounds.emplace_back();
  r.number = round;
  return r;
}

void ConsensusHost::crash_reset() {
  for (Instance& in : instances_) {
    if (in.timer_armed) sim_.cancel(in.round_timer);
  }
  instances_.clear();
}

void ConsensusHost::trim_below(std::uint64_t inst) {
  // A site that learned a decision through catch-up may still run a round
  // timer on the instance.
  std::uint64_t k = instances_.first_key();
  for (auto it = instances_.begin(); it != instances_.end() && k < inst; ++it, ++k) {
    if (it->timer_armed) sim_.cancel(it->round_timer);
  }
  instances_.trim_front(inst);
}

ConsensusHost::Value ConsensusHost::propose(std::uint64_t inst, std::span<const MsgId> batch) {
  Instance& in = instance(inst);
  OTPDB_CHECK_MSG(!in.proposed, "duplicate propose for consensus instance");
  in.proposed = true;
  auto payload = payloads_.acquire();
  payload->kind = Kind::propose;
  payload->inst = inst;
  payload->proposal.assign(batch.begin(), batch.end());
  Value value(payload, &payload->proposal);
  if (in.decided) return value;  // learned the decision before getting to propose
  in.est = value;
  in.ts = 0;
  net_.multicast(self_, kChannelConsensus, std::move(payload));
  arm_round_timer(inst);
  // If this site coordinates round 0, give the fast path a window, then drive
  // a coordinated round for liveness.
  if (coordinator(inst, 0) == self_) {
    sim_.schedule_after(config_.fast_wait, [this, inst] { maybe_coord_round0(inst); });
  }
  return value;
}

void ConsensusHost::on_message(const Message& msg) {
  const auto* p = payload_cast_fast<ConsensusPayload>(msg);
  OTPDB_CHECK(p != nullptr);
  if (instances_.trimmed(p->inst)) {
    ++stats_.below_floor_dropped;
    return;
  }
  Instance& in = instance(p->inst);

  // Reply with the decision to any straggler still working on a decided instance.
  if (in.decided) {
    if (p->kind != Kind::decision && msg.from != self_) {
      net_.unicast(self_, msg.from, kChannelConsensus,
                   make_payload(Kind::decision, p->inst, 0, 0, in.decision));
    }
    return;
  }

  switch (p->kind) {
    case Kind::propose: {
      if ((in.proposers & bit(msg.from)) == 0) {
        in.proposers |= bit(msg.from);
        if (!in.first_proposal) {
          in.first_proposal = Value(msg.payload, &p->proposal);
        } else if (in.proposals_agree && in.first_proposal.get() != &p->proposal) {
          in.proposals_agree = *in.first_proposal == p->proposal;  // compares contents
        }
      }
      // A proposal also serves as a round-0 estimate with timestamp 0.
      maybe_fast_decide(p->inst);
      if (!in.decided && coordinator(p->inst, 0) == self_ &&
          count(in.proposers) == net_.site_count()) {
        // Everyone proposed but the fast path failed: no point waiting longer.
        maybe_coord_round0(p->inst);
      }
      break;
    }
    case Kind::estimate:
      handle_estimate(p->inst, p->round, msg.from, p->ts, p->value);
      break;
    case Kind::coord_prop:
      handle_coord_prop(p->inst, p->round, msg.from, p->value);
      break;
    case Kind::ack:
      handle_ack(p->inst, p->round, msg.from);
      break;
    case Kind::decision:
      decide(p->inst, p->value, /*fast=*/false, /*announce=*/false);
      break;
  }
}

void ConsensusHost::maybe_fast_decide(std::uint64_t inst) {
  Instance& in = instance(inst);
  if (in.decided || count(in.proposers) != net_.site_count() || !in.proposals_agree) return;
  // All n proposals identical: decide without any further coordination. No
  // announcement is needed - every correct site receives the same n proposals
  // and takes this same branch.
  decide(inst, in.first_proposal, /*fast=*/true, /*announce=*/false);
}

void ConsensusHost::maybe_coord_round0(std::uint64_t inst) {
  if (instances_.trimmed(inst)) return;  // a retry scheduled before the trim
  Instance& in = instance(inst);
  if (in.decided || in.coord_proposed_round0 || in.round > 0) return;
  if (!in.proposed) return;  // cannot coordinate before having a value
  if (count(in.proposers) < majority()) {
    // Not enough proposals yet; retry shortly (liveness under slow links).
    sim_.schedule_after(config_.fast_wait, [this, inst] { maybe_coord_round0(inst); });
    return;
  }
  // Give the fast path one more chance on the data we have.
  maybe_fast_decide(inst);
  if (instance(inst).decided) return;
  in.coord_proposed_round0 = true;
  coord_propose(inst, 0, in.est);
}

void ConsensusHost::coord_propose(std::uint64_t inst, std::uint64_t round, Value value) {
  Instance& in = instance(inst);
  Round& r = round_state(in, round);
  r.value = value;
  ++stats_.rounds_started;
  // Adopt our own proposal at send time, under the same staleness rule a peer
  // applies in handle_coord_prop. Counting self in the ack set is only sound
  // after this adoption: a majority of acks must mean a majority of sites
  // actually locked the value. (Before this, a coordinator whose estimate had
  // moved on to a later round still counted itself, so a decision could rest
  // on majority-1 real adopters - and a concurrent later round could lock a
  // different value with a disjoint majority. Found by chaos injection:
  // heavy delay variance makes rounds overlap.)
  if (round + 1 >= in.ts) {
    in.est = value;
    in.ts = round + 1;
    r.acks |= bit(self_);
  }
  net_.multicast(self_, kChannelConsensus,
                 make_payload(Kind::coord_prop, inst, round, 0, std::move(value)));
}

void ConsensusHost::handle_estimate(std::uint64_t inst, std::uint64_t round, SiteId from,
                                    std::uint64_t ts, const Value& value) {
  Instance& in = instance(inst);
  if (coordinator(inst, round) != self_) return;
  // Never coordinate a round we have moved past: our estimate for a later
  // round (carrying the pre-adoption timestamp) is already in flight, so
  // self-adopting here could let two overlapping rounds lock different
  // values with disjoint majorities.
  if (round < in.round) return;
  Round& r = round_state(in, round);
  if (r.estimates.empty()) r.estimates.resize(net_.site_count());
  const auto record = [&r](SiteId site, std::uint64_t site_ts, const Value& estimate) {
    r.estimated |= bit(site);
    r.estimates[site] = {site_ts, estimate};
  };
  record(from, ts, value);
  if (r.value) return;  // already proposed this round
  // Include our own estimate once we have one.
  if (in.proposed) record(self_, in.ts, in.est);
  if (count(r.estimated) < majority()) return;
  // Adopt the estimate with the highest adoption timestamp (locking rule);
  // ties go to the lowest site.
  const std::pair<std::uint64_t, Value>* best = nullptr;
  for (SiteId site = 0; site < r.estimates.size(); ++site) {
    if ((r.estimated & bit(site)) == 0) continue;
    if (!best || r.estimates[site].first > best->first) best = &r.estimates[site];
  }
  coord_propose(inst, round, best->second);
}

void ConsensusHost::handle_coord_prop(std::uint64_t inst, std::uint64_t round, SiteId from,
                                      const Value& value) {
  Instance& in = instance(inst);
  // Adopt the coordinator's value and ack - but never let a stale round
  // overwrite an estimate adopted in a later round, or the locking argument
  // (decided values survive into all later rounds) would break.
  if (round + 1 < in.ts) return;
  // And never ack a round we have advanced past: our estimate for the later
  // round - sent before this adoption, still carrying the old timestamp - may
  // already be counted by that round's coordinator. Acking here would let a
  // decision rest on a majority whose locks the later round cannot see.
  // (Found by chaos injection; see the seed-5 trace in the chaos tests.)
  if (round < in.round) return;
  in.est = value;
  in.ts = round + 1;
  in.round = std::max(in.round, round);
  net_.unicast(self_, from, kChannelConsensus, make_payload(Kind::ack, inst, round, 0, {}));
}

void ConsensusHost::handle_ack(std::uint64_t inst, std::uint64_t round, SiteId from) {
  Instance& in = instance(inst);
  Round* r = find_round(in, round);
  if (r == nullptr || !r->value) return;
  r->acks |= bit(from);  // self was counted in coord_propose iff we adopted
  if (count(r->acks) >= majority()) {
    decide(inst, r->value, /*fast=*/false, /*announce=*/true);
  }
}

void ConsensusHost::decide(std::uint64_t inst, const Value& value, bool fast, bool announce) {
  Instance& in = instance(inst);
  if (in.decided) return;
  in.decided = true;
  in.decision = value;
  if (in.timer_armed) {
    sim_.cancel(in.round_timer);
    in.timer_armed = false;
  }
  ++stats_.instances_decided;
  if (fast) {
    ++stats_.fast_decides;
  } else {
    ++stats_.round_decides;
  }
  if (announce) {
    net_.multicast(self_, kChannelConsensus, make_payload(Kind::decision, inst, 0, 0, value));
  }
  OTPDB_TRACE("consensus") << "site " << self_ << " decides inst " << inst << " ("
                           << (fast ? "fast" : "round") << ", " << value->size() << " msgs)";
  // `value` may be the first proposal or a round's CoordProp: hand out the
  // instance's own reference, and release the round state only once the
  // callback has returned.
  if (on_decide_) on_decide_(inst, in.decision);
  in.est = {};
  in.first_proposal = {};
  in.coordinated = {};
  in.later_rounds = {};
}

void ConsensusHost::arm_round_timer(std::uint64_t inst) {
  Instance& in = instance(inst);
  if (in.decided) return;
  if (in.timer_armed) sim_.cancel(in.round_timer);
  double timeout = static_cast<double>(config_.round_timeout);
  for (std::uint64_t k = 0; k < in.round && timeout < static_cast<double>(kMaxRoundTimeout); ++k) {
    timeout *= kRoundBackoff;
  }
  timeout = std::min(timeout, static_cast<double>(kMaxRoundTimeout));
  in.round_timer = sim_.schedule_after(static_cast<SimTime>(timeout),
                                       [this, inst] { advance_round(inst); });
  in.timer_armed = true;
}

void ConsensusHost::advance_round(std::uint64_t inst) {
  Instance& in = instance(inst);
  in.timer_armed = false;
  if (in.decided) return;
  ++in.round;
  const SiteId coord = coordinator(inst, in.round);
  OTPDB_DEBUG("consensus") << "site " << self_ << " advances inst " << inst << " to round "
                           << in.round << " (coordinator " << coord << ")";
  if (coord == self_) {
    // Seed our own estimate; more arrive from peers advancing their timers.
    handle_estimate(inst, in.round, self_, in.ts, in.est);
  } else {
    net_.unicast(self_, coord, kChannelConsensus,
                 make_payload(Kind::estimate, inst, in.round, in.ts, in.est));
  }
  arm_round_timer(inst);
}

}  // namespace otpdb
