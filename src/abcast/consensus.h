// Crash-tolerant consensus on message sequences, with a spontaneous-order
// fast path.
//
// One ConsensusHost per site multiplexes any number of numbered instances
// (OptAbcast runs one instance per ordering stage). The value domain is a
// sequence of MsgIds (a proposed delivery order), immutable once proposed:
// payloads, estimates and decisions share it instead of copying it.
//
// Allocation. Every message this host sends - Propose, CoordProp, Ack,
// Estimate and Decision - comes from its pool of payloads (BodyPool,
// util/recycling.h): when the last reference to a payload drops, wherever
// that happens, the payload is cleared and kept for this host's next send,
// its sequence storage included. A warm host therefore decides a stage
// without allocating. The Propose payload owns its sequence, and a Value
// for it is an aliasing shared_ptr that shares the payload's ownership; the
// proposer's log, the receivers' estimates and a decision that adopts it
// all hold that one payload. A payload never holds a Value into itself (it
// would never be released), so a Propose carries its sequence by value and
// every other message a Value, which clearing drops. An instance keeps flat
// state inline in a recycled table slot (DenseDeque): a bitmask of
// proposers, the first proposal and whether every later one equals it, and
// for each round this site coordinates its CoordProp and an ack bitmask.
// The bitmasks cap a cluster at kMaxSites sites.
//
// Protocol (rotating coordinator, Chandra-Toueg style, majority quorums,
// f < n/2 crash faults, eventually-accurate failure detector for liveness):
//
//   Fast path.  Every participant multicasts Propose(inst, seq). A site that
//   has received ALL n proposals and finds them identical decides immediately,
//   with no further communication. This is the Pedone-Schiper optimistic case:
//   when spontaneous total order holds, every site proposes the same sequence
//   and agreement costs a single message exchange. Safety is unconditional:
//   if all n initial proposals equal v, every estimate in the system is v, so
//   no round can decide anything else.
//
//   Rounds.  Round k's coordinator is site (inst + k) mod n. The coordinator
//   gathers a majority of estimates (round 0 uses the Propose messages),
//   adopts the estimate with the highest adoption timestamp, and multicasts
//   CoordProp(inst, k, v). Participants adopt v (timestamp k+1) and ack; on a
//   majority of acks the coordinator decides and multicasts Decision(inst, v).
//   Participants advance rounds on a timer whose timeout doubles per round
//   (capped at 2 s); they do not consult a failure detector. Quorum
//   intersection plus the max-timestamp rule gives the usual locking
//   argument: once any round gathers a majority of acks for v, every later
//   coordinator adopts v.
//
// Late joiners: a site receiving traffic for an instance it already decided
// replies with the Decision, so laggards catch up. Instances below the
// cluster's stable floor are trimmed (trim_below): every site has applied
// their decisions, so traffic for them is dropped and counted instead
// (ConsensusStats::below_floor_dropped).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/dense_deque.h"
#include "util/recycling.h"
#include "util/types.h"

namespace otpdb {

struct ConsensusConfig {
  /// How long a round-0 coordinator waits for the fast path to win before
  /// driving a coordinated round.
  SimTime fast_wait = 2 * kMillisecond;
  /// Base round-advance timeout; doubles per round, up to 2 s.
  SimTime round_timeout = 30 * kMillisecond;
};

struct ConsensusStats {
  std::uint64_t instances_decided = 0;
  std::uint64_t fast_decides = 0;   ///< decided via identical-proposal fast path
  std::uint64_t round_decides = 0;  ///< decided via coordinator round
  std::uint64_t rounds_started = 0;
  /// Messages dropped because their instance was trimmed (below the
  /// cluster's stable floor).
  std::uint64_t below_floor_dropped = 0;
};

/// Per-site consensus participant multiplexing numbered instances.
class ConsensusHost {
 public:
  /// A proposed delivery order.
  using Sequence = std::vector<MsgId>;
  /// One immutable sequence, built once by its proposer and then shared by
  /// every payload, estimate, decision and log that holds it. Never null.
  using Value = std::shared_ptr<const Sequence>;
  using DecideFn = std::function<void(std::uint64_t inst, const Value& value)>;

  /// Largest cluster an instance's site bitmasks can describe.
  static constexpr std::size_t kMaxSites = 64;

  /// CHECK-fails when the network has more than kMaxSites sites.
  ConsensusHost(Simulator& sim, Network& net, SiteId self, ConsensusConfig config);
  ~ConsensusHost();

  /// Joins instance `inst`, proposing `batch` (copied once, into the Propose
  /// payload's recycled storage). Each site proposes at most once per
  /// instance. Returns the proposal, which shares the payload's ownership.
  Value propose(std::uint64_t inst, std::span<const MsgId> batch);

  /// Registers the decision callback (invoked exactly once per instance).
  void set_on_decide(DecideFn fn) { on_decide_ = std::move(fn); }

  /// Drops every instance below `inst` for good. The caller guarantees that
  /// every site has applied their decisions.
  void trim_below(std::uint64_t inst);
  /// Instances currently held (decided or not) - the trimmed table's size.
  std::size_t retained_instances() const { return instances_.size(); }

  const ConsensusStats& stats() const { return stats_; }

  /// Drops all per-instance state (crash recovery: consensus participation is
  /// volatile; decided outcomes are re-learned from peers' decision logs).
  void crash_reset();

 private:
  /// The payload of every consensus message (defined in consensus.cc).
  struct ConsensusPayload;
  enum class Kind : std::uint8_t { propose, estimate, coord_prop, ack, decision };

  /// What this site did as the coordinator of one round.
  struct Round {
    static constexpr std::uint64_t kUnused = ~std::uint64_t{0};
    std::uint64_t number = kUnused;
    Value value;                  ///< its CoordProp; null until sent
    std::uint64_t acks = 0;       ///< sites that acked `value`, as a bitmask
    std::uint64_t estimated = 0;  ///< sites whose estimate arrived, as a bitmask
    /// (adoption timestamp, estimate) by site; sized on the first estimate
    /// (rounds >= 1 only: round 0 takes the Propose messages as estimates).
    std::vector<std::pair<std::uint64_t, Value>> estimates;
  };

  /// Once decided, an instance keeps only `proposed`, `decided` and
  /// `decision` (late messages and a late propose() read them); decide()
  /// releases the round state. `decision` shares its sequence with the
  /// decider's log (OptAbcast), so each decision is held once.
  struct Instance {
    bool proposed = false;
    bool decided = false;
    bool coord_proposed_round0 = false;
    bool timer_armed = false;
    /// Every Propose received so far equals `first_proposal`.
    bool proposals_agree = true;
    EventId round_timer{};
    Value est;
    std::uint64_t ts = 0;  // round in which est was adopted (+1); 0 = initial
    std::uint64_t round = 0;
    /// Round-0 estimates are the Propose messages: which sites sent one, and
    /// the first to arrive (the fast path only compares the rest with it).
    std::uint64_t proposers = 0;
    Value first_proposal;
    /// The first round this site coordinates, inline; any later one (only
    /// after round timeouts) goes to `later_rounds`.
    Round coordinated;
    std::vector<Round> later_rounds;
    Value decision;
  };

  SiteId coordinator(std::uint64_t inst, std::uint64_t round) const {
    return static_cast<SiteId>((inst + round) % net_.site_count());
  }
  std::size_t majority() const { return net_.site_count() / 2 + 1; }

  /// A payload from the pool, for every message kind but Propose.
  PayloadPtr make_payload(Kind kind, std::uint64_t inst, std::uint64_t round, std::uint64_t ts,
                          Value value);
  Instance& instance(std::uint64_t inst);
  /// This site's state as coordinator of `round`, created if absent.
  Round& round_state(Instance& in, std::uint64_t round);
  /// The same, or nullptr when this site has not touched the round.
  static Round* find_round(Instance& in, std::uint64_t round);
  void on_message(const Message& msg);
  void maybe_fast_decide(std::uint64_t inst);
  void maybe_coord_round0(std::uint64_t inst);
  void coord_propose(std::uint64_t inst, std::uint64_t round, Value value);
  void handle_estimate(std::uint64_t inst, std::uint64_t round, SiteId from, std::uint64_t ts,
                       const Value& value);
  void handle_coord_prop(std::uint64_t inst, std::uint64_t round, SiteId from, const Value& value);
  void handle_ack(std::uint64_t inst, std::uint64_t round, SiteId from);
  void decide(std::uint64_t inst, const Value& value, bool fast, bool announce);
  void arm_round_timer(std::uint64_t inst);
  void advance_round(std::uint64_t inst);

  Simulator& sim_;
  Network& net_;
  SiteId self_;
  ConsensusConfig config_;
  /// Indexed by instance number; growth keeps references stable.
  DenseDeque<Instance> instances_;
  BodyPool<ConsensusPayload> payloads_;  // every message this host sends
  DecideFn on_decide_;
  ConsensusStats stats_;
};

}  // namespace otpdb
