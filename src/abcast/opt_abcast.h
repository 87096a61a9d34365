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
// Tolerates f < n/2 crash faults (inherited from the consensus layer).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/consensus.h"
#include "net/network.h"
#include "sim/timer_wheel.h"
#include "sim/simulator.h"
#include "util/dense_deque.h"

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
  /// Cap on messages proposed per stage.
  std::size_t max_batch = 128;
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
  const AbcastStats& stats() const override { return stats_; }
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
  // below its durable watermark). Catch-up is redo-style: peers keep a
  // decision log and a body cache; the recovering site requests decisions
  // from stage 0 and fetches missing message bodies on demand, re-delivering
  // Opt+TO through the normal callbacks. New stages keep flowing concurrently.

  /// Discards all volatile protocol state. Call while the site is down.
  void crash_reset();
  /// Starts catch-up after the network reconnected this site. A durable
  /// restart passes its recovered floor: every TO-slot at or below it is
  /// already committed on the replica's disk, so catch-up delivers those
  /// slots as body-less tombstones instead of fetching the payloads.
  void begin_recovery(TOIndex durable_floor = 0);
  /// True while catch-up is still in progress.
  bool recovering() const { return recovering_; }

 private:
  /// A proposal or decision, shared with consensus (see ConsensusHost::Value).
  using SharedSequence = ConsensusHost::Value;

  void on_data(const Message& msg);
  void consider_stage();
  void start_stage();
  void on_decide(std::uint64_t inst, const SharedSequence& sequence);
  /// Lowest stage this site has not applied yet (the log is append-only).
  std::uint64_t next_apply() const { return decision_log_.size(); }
  /// Applies (and logs) the decision for stage next_apply().
  void apply_decision(SharedSequence sequence);
  /// Applies buffered decisions while the next stage in order is among them.
  void apply_buffered();
  void drain_decided();
  void on_recovery_message(const Message& msg);
  void request_missing_bodies();
  void send_catch_up_request();
  void deliver_fetched_body(const MsgId& id, PayloadPtr payload);

  /// Everything this site knows about one message, consolidated so each
  /// protocol event costs a single table lookup instead of one per
  /// bookkeeping structure. Entries live in per-sender tables indexed by
  /// sequence number (msgs_) and are never erased outside crash_reset, so
  /// pointers to them stay valid and the hot queues carry them directly.
  struct MsgState {
    SimTime opt_time = 0;  // arrival time: alignment cutoff + gap statistic
    PayloadPtr body;       // cached to serve recovering peers
    bool arrived = false;  // Opt-delivered here
    bool ordered = false;  // definitively ordered by a decided stage
    bool in_proposal = false;  // sitting in an undecided stage's proposal
  };
  using MsgRef = std::pair<MsgId, MsgState*>;

  /// The state of `id`, created if this site has not seen it yet.
  MsgState& state(const MsgId& id);

  Simulator& sim_;
  Network& net_;
  SiteId self_;
  OptAbcastConfig config_;
  TimerWheel wheel_{sim_};  // retransmission timers (body_retry_timer_)
  ConsensusHost consensus_;
  AbcastCallbacks callbacks_;

  /// Per sender, indexed by sequence number. The network numbers a sender's
  /// messages densely across all channels, so the slots of its consensus,
  /// failure-detector and recovery messages stay default (32 B each).
  std::vector<DenseDeque<MsgState>> msgs_;
  std::deque<MsgRef> pending_;        // arrived, not yet definitively ordered
  std::deque<MsgRef> decided_queue_;  // decided, awaiting TO-delivery
  std::map<std::uint64_t, SharedSequence> decided_buffer_;  // out-of-order decisions
  std::map<std::uint64_t, SharedSequence> my_proposals_;    // per in-flight stage
  std::vector<MsgId> proposal_scratch_;                     // reused by start_stage
  std::uint64_t next_propose_ = 0;  // next stage this site will propose for
  bool stage_timer_armed_ = false;
  TOIndex next_index_ = 1;
  /// Own broadcasts sent but not yet TO-delivered here (backpressure signal).
  std::size_t own_inflight_ = 0;
  /// TO-slots <= this are TO-delivered without a body during catch-up (the
  /// replica restored them from its own durable log). 0 outside recovery.
  TOIndex durable_floor_ = 0;
  AbcastStats stats_;
  std::vector<ToDelivery> drain_scratch_;  // reused burst buffer (drain_decided)

  // Recovery support (message bodies are cached in msgs_[].body).
  /// Decided sequences by stage, shared with the consensus instances that
  /// decided them and with catch-up responses. Append-only: after every
  /// reset, decisions are applied in stage order from 0.
  std::vector<SharedSequence> decision_log_;
  bool recovering_ = false;
  bool body_request_outstanding_ = false;
  /// Retransmission timer on wheel_ (cancelled by the body_response in the
  /// common case - exactly the cancel-heavy shape the wheel exists for).
  TimerWheel::TimerId body_retry_timer_{};
  std::uint32_t body_request_attempts_ = 0;  // rotates the peer asked
  std::uint64_t catch_up_round_ = 0;
};

}  // namespace otpdb
