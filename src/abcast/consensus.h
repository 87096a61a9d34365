// Crash-tolerant consensus on message sequences, with a spontaneous-order
// fast path.
//
// One ConsensusHost per site multiplexes any number of numbered instances
// (OptAbcast runs one instance per ordering stage). The value domain is a
// sequence of MsgIds (a proposed delivery order), immutable once proposed:
// payloads, estimates and decisions share it instead of copying it.
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
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/dense_deque.h"
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

  ConsensusHost(Simulator& sim, Network& net, SiteId self, ConsensusConfig config);

  /// Joins instance `inst` with the given initial proposal. Each site proposes
  /// at most once per instance.
  void propose(std::uint64_t inst, Value value);

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
  /// Once decided, an instance keeps only `proposed`, `decided` and
  /// `decision` (late messages and a late propose() read them); decide()
  /// releases the round state. `decision` shares its sequence with the
  /// decider's log (OptAbcast), so each decision is held once.
  struct Instance {
    bool proposed = false;
    bool decided = false;
    bool coord_proposed_round0 = false;
    bool timer_armed = false;
    EventId round_timer{};
    Value est;
    std::uint64_t ts = 0;  // round in which est was adopted (+1); 0 = initial
    std::uint64_t round = 0;
    /// Round-0 estimates: the received Propose payloads, by sender. Kept as
    /// payload pointers (no Value copy) - the fast path only compares them.
    std::vector<std::pair<SiteId, PayloadPtr>> proposals;
    std::map<std::uint64_t, std::map<SiteId, std::pair<std::uint64_t, Value>>> estimates;
    std::map<std::uint64_t, std::set<SiteId>> acks;
    std::map<std::uint64_t, Value> coord_value;  // what this site proposed as coordinator
    Value decision;
  };

  SiteId coordinator(std::uint64_t inst, std::uint64_t round) const {
    return static_cast<SiteId>((inst + round) % net_.site_count());
  }
  std::size_t majority() const { return net_.site_count() / 2 + 1; }

  Instance& instance(std::uint64_t inst);
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
  DecideFn on_decide_;
  ConsensusStats stats_;
};

}  // namespace otpdb
