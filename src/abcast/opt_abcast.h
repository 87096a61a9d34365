// OptAbcast - Atomic Broadcast with Optimistic Delivery (paper Section 2.1,
// protocol in the style of Pedone & Schiper, DISC'98).
//
// Data messages are IP-multicast to all sites and Opt-delivered the moment
// they arrive (tentative order = spontaneous network order). The definitive
// order is established in numbered *stages*, each backed by one consensus
// instance: every site proposes its arrival order of a batch of unordered
// messages. When spontaneous total order holds, all proposals are identical
// and the consensus fast path decides with no extra coordination rounds;
// otherwise a coordinator round resolves the mismatch. The decided sequence
// is TO-delivered in stage order; a message decided before it reaches some
// site is TO-delivered there only after its arrival, preserving the Local
// Order property (Opt-deliver always precedes TO-deliver).
//
// Two mechanisms keep the identical-proposal fast path hot:
//  * Epoch-aligned batching with an alignment window: stages open at global
//    multiples of batch_delay and only include messages that arrived at
//    least alignment_window before the boundary, so all sites evaluate the
//    same cutoff and propose the same batch despite arrival skew.
//  * Stage pipelining: up to max_outstanding_stages consensus instances run
//    concurrently, so a stage's proposal time is anchored to the global
//    epoch grid instead of the (skewed) arrival of the previous decision,
//    and ordering throughput is not bound by per-stage latency.
//
// Decisions can be learned out of order (fast-path decisions are silent, and
// instances are pipelined); they are buffered and applied strictly in stage
// order.
//
// History is bounded by the cluster's stable floor (FailureDetector::
// stable_floor, the minimum over all sites of the highest definitive index
// each has committed, and on the WAL backend made durable). Below it no site
// will ever need a replay, so each site trims its decision log, its consensus
// instances, and every sender's message slots and cached bodies. A crashed
// site's floor stays at its last report, which pins trimming until it is
// back.
//
// Tolerates f < n/2 crash faults (inherited from the consensus layer).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/consensus.h"
#include "abcast/failure_detector.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/dense_deque.h"
#include "util/recycling.h"

namespace otpdb {

struct OptAbcastConfig {
  /// Stage cadence: stages open at global multiples of this delay.
  SimTime batch_delay = 1 * kMillisecond;
  /// A stage only includes messages that arrived at least this long before
  /// the stage boundary; fresher messages wait for the next stage. Covers
  /// inter-site arrival skew (including the hiccup tail); pure added ordering
  /// latency, traded against fast-path probability.
  SimTime alignment_window = 800 * kMicrosecond;
  /// Maximum consensus instances in flight concurrently. The default (1,
  /// strictly sequential stages) maximizes the identical-proposal fast-path
  /// ratio: overlapped stages make proposal sets diverge after any mismatch,
  /// which costs more than the pipelining gains at LAN latencies (see
  /// bench/ablation_protocol for the measured tradeoff).
  std::size_t max_outstanding_stages = 1;
  /// Sender-side backpressure: maximum own broadcasts in flight (sent but not
  /// yet TO-delivered here). 0 = unbounded (the historical behavior). While
  /// at the cap, backpressured() turns true and the ingress gate refuses new
  /// submissions instead of letting pending_ grow without bound.
  std::size_t max_inflight_per_sender = 0;
  ConsensusConfig consensus;
};

class OptAbcast final : public AtomicBroadcast {
 public:
  OptAbcast(Simulator& sim, Network& net, FailureDetector& fd, SiteId self,
            OptAbcastConfig config);

  MsgId broadcast(PayloadPtr payload) override;
  void set_callbacks(AbcastCallbacks callbacks) override;
  SiteId site() const override { return self_; }
  const AbcastStats& stats() const override {
    // Late consensus messages for trimmed instances are counted by consensus.
    stats_.below_floor_dropped = late_copies_dropped_ + consensus_.stats().below_floor_dropped;
    return stats_;
  }
  bool backpressured() const override {
    return config_.max_inflight_per_sender != 0 &&
           own_inflight_ >= config_.max_inflight_per_sender;
  }

  /// Consensus-level counters (fast vs. coordinated stages).
  const ConsensusStats& consensus_stats() const { return consensus_.stats(); }

  /// Next definitive index this site will assign (== TO-delivered count + 1).
  TOIndex next_index() const { return next_index_; }

  // -- Crash recovery (paper model: sites always recover) -------------------
  //
  // A crash wipes this endpoint's volatile protocol state (arrived bodies,
  // pending batches, in-flight proposals, even the applied-stage counters -
  // the definitive order is re-learned, and the replica suppresses re-commits
  // below its commit watermarks). Catch-up is redo-style: peers keep a
  // decision log and a body cache above the stable floor; the recovering
  // site asks for decisions, and a peer answers from its first retained stage
  // together with that stage's first definitive index and which messages the
  // stages before it ordered (per sender, a front key plus exceptions). The
  // first answer whose decisions reach the site's replay floor places it:
  // the site re-enters the order there, fetches missing message bodies on
  // demand and re-delivers Opt+TO through the normal callbacks. New stages
  // keep flowing concurrently; until it is placed the site proposes none and
  // holds back arrivals, which it cannot yet tell from late copies of
  // messages ordered before the point where it resumes.

  /// Discards all volatile protocol state. Call while the site is down.
  void crash_reset();
  /// Starts catch-up after the network reconnected this site. `replay_floor`
  /// is the replica's committed floor (warm recovery) or recovered durable
  /// floor (cold restart): every TO-slot at or below it is already applied
  /// there, so catch-up delivers those slots as body-less tombstones instead
  /// of fetching the payloads. Peers never trim above it: the site reported
  /// at most this floor before it crashed.
  void begin_recovery(TOIndex replay_floor);
  /// True while catch-up is still in progress.
  bool recovering() const { return recovering_; }

  /// Sizes of the tables trimmed below the stable floor.
  struct Retained {
    std::size_t msg_slots = 0;   ///< message slots over all senders
    std::size_t detached = 0;    ///< slots a sender's front passed while empty
    std::size_t log_stages = 0;  ///< decided stages held for catch-up
    std::size_t instances = 0;   ///< consensus instances held
  };
  Retained retained() const;

 private:
  /// A proposal or decision, shared with consensus (see ConsensusHost::Value).
  using SharedSequence = ConsensusHost::Value;

  void on_data(const Message& msg);
  void consider_stage();
  void start_stage();
  void on_decide(std::uint64_t inst, const SharedSequence& sequence);
  /// Lowest stage this site has not applied yet.
  std::uint64_t next_apply() const { return log_base_stage_ + log_.size(); }
  /// Lowest stage still in the decision log.
  std::uint64_t first_retained_stage() const { return log_base_stage_ + log_trimmed_; }
  /// First definitive index of `stage` (first_retained_stage() <= stage <=
  /// next_apply(); for next_apply(), the index the next stage starts at).
  TOIndex stage_base(std::uint64_t stage) const;
  /// Applies (and logs) the decision for stage next_apply().
  void apply_decision(SharedSequence sequence);
  /// Applies buffered decisions while the next stage in order is among them.
  void apply_buffered();
  void drain_decided();
  void on_recovery_message(const Message& msg);
  void request_missing_bodies();
  void send_catch_up_request();
  void deliver_fetched_body(const MsgId& id, PayloadPtr payload);
  /// Trims everything below the stable floor once it has risen.
  void maybe_trim();
  /// Moves `sender`'s front past the slots delivered before the first
  /// retained stage.
  void trim_sender(SiteId sender);

  /// Everything this site knows about one message, consolidated so each
  /// protocol event costs a single table lookup instead of one per
  /// bookkeeping structure. Entries live in per-sender tables indexed by
  /// sequence number (msgs_) and are erased only once a trimmed stage
  /// ordered them (or by crash_reset) - never while a hot queue points at
  /// them, so the queues carry pointers directly.
  struct MsgState {
    // Until TO-delivery the arrival time (alignment cutoff, gap statistic),
    // from then on the definitive index. Their lifetimes never overlap, so
    // they share a word and a slot stays 32 B.
    union {
      SimTime opt_time = 0;
      TOIndex index;  // valid once `delivered`
    };
    PayloadPtr body;       // cached to serve recovering peers
    bool arrived = false;  // Opt-delivered here
    bool ordered = false;  // definitively ordered by a decided stage
    bool in_proposal = false;  // sitting in an undecided stage's proposal
    bool delivered = false;    // TO-delivered here
  };
  static_assert(sizeof(MsgState) == 32);
  using MsgRef = std::pair<MsgId, MsgState*>;

  /// The state of `id`, created if this site has not seen it yet; nullptr
  /// when it was trimmed (TO-delivered at or below the stable floor).
  MsgState* state(const MsgId& id);
  /// The state of `id` if this site holds one (never creates).
  const MsgState* held(const MsgId& id) const;
  /// Opt-delivers `msg`, which arrived at `at`, and returns its state;
  /// nullptr for a late copy (trimmed, or arrived before).
  MsgState* arrive(const Message& msg, SimTime at);

  /// One applied stage in the decision log.
  struct LoggedStage {
    /// The messages the stage newly ordered, in order (its decision, minus
    /// any message an earlier stage already ordered), shared with consensus
    /// and catch-up responses.
    SharedSequence sequence;
    TOIndex end = 0;  // one past the stage's last definitive index
  };

  Simulator& sim_;
  Network& net_;
  FailureDetector& fd_;
  SiteId self_;
  OptAbcastConfig config_;
  ConsensusHost consensus_;
  AbcastCallbacks callbacks_;

  /// Per sender, indexed by data-channel sequence number (the network
  /// numbers each channel's stream densely, so no slot is left for other
  /// channels' messages). A sender's front passes a slot once a trimmed
  /// stage ordered it (TO-delivered below trimmed_end_, so at or below the
  /// stable floor); a late copy below the front is dropped and counted, and
  /// its slot is never re-created. Invariant: below a sender's front, every
  /// key not in detached_ was ordered by a trimmed stage.
  std::vector<DenseDeque<MsgState>> msgs_;
  /// Keys a sender's front passed while this site held no message for them
  /// (never arrived nor ordered here): a broadcast its crashed sender never
  /// got out, one still in flight, or a gap at a recovered site. They stay
  /// addressable here until a trimmed stage ordered them; a lost broadcast
  /// stays.
  std::map<MsgId, MsgState> detached_;
  /// The queues' element blocks, recycled as the queues slide.
  FreeBlocks queue_blocks_;
  using MsgQueue = std::deque<MsgRef, RecyclingAllocator<MsgRef>>;
  MsgQueue pending_{RecyclingAllocator<MsgRef>(&queue_blocks_)};  // arrived, not yet ordered
  MsgQueue decided_queue_{RecyclingAllocator<MsgRef>(&queue_blocks_)};  // awaiting TO-delivery
  std::map<std::uint64_t, SharedSequence> decided_buffer_;  // out-of-order decisions
  DenseDeque<SharedSequence> my_proposals_;  // per in-flight stage, from next_apply()
  std::vector<MsgId> proposal_scratch_;                     // reused by start_stage
  std::uint64_t next_propose_ = 0;  // next stage this site will propose for
  bool stage_timer_armed_ = false;
  TOIndex next_index_ = 1;
  /// Own broadcasts sent but not yet TO-delivered here (backpressure signal).
  std::size_t own_inflight_ = 0;
  /// TO-slots <= this are TO-delivered without a body during catch-up (the
  /// replica already applied them). 0 outside recovery.
  TOIndex replay_floor_ = 0;
  mutable AbcastStats stats_;  // below_floor_dropped is filled in by stats()
  std::uint64_t late_copies_dropped_ = 0;  // data copies below a sender's front
  std::vector<ToDelivery> drain_scratch_;  // reused burst buffer (drain_decided)

  // Recovery support (message bodies are cached in msgs_[].body).
  /// Applied stages from log_base_stage_ on. The first log_trimmed_ entries
  /// are trimmed (their sequences released) and erased in bulk once they
  /// make up half the vector, so the log reuses its capacity.
  std::vector<LoggedStage> log_;
  std::uint64_t log_base_stage_ = 0;
  std::size_t log_trimmed_ = 0;
  TOIndex trimmed_end_ = 1;    ///< first definitive index of the first retained stage
  TOIndex trimmed_floor_ = 0;  ///< the stable floor of the last trim
  /// Recovering and not yet told where the retained order starts: decisions
  /// are buffered, arrivals held and no stage is proposed until a catch-up
  /// answer arrives.
  bool need_base_ = false;
  struct HeldArrival {
    Message msg;
    SimTime at;
  };
  std::vector<HeldArrival> held_back_;  // arrivals while need_base_, in order
  bool recovering_ = false;
  bool body_request_outstanding_ = false;
  /// Retransmission timer (cancelled by the body_response in the common case).
  EventId body_retry_timer_{};
  std::uint32_t body_request_attempts_ = 0;  // rotates the peer asked
};

}  // namespace otpdb
