// Simulated network segment with selectable topology.
//
// The default lan profile models the testbed of the paper's Figure 1
// experiment (shared Ethernet with IP multicast): one shared medium that
// serializes frames, a propagation / protocol-stack floor per receiver, and
// receive-side jitter. The jitter model is bimodal - most packets see only
// microsecond-scale noise, a small fraction hit a "hiccup" (kernel
// scheduling, interrupt coalescing) with a much larger exponential delay.
// That bimodality is what makes spontaneous total order common for
// well-spaced sends and increasingly rare as the send interval approaches
// zero, reproducing the shape of Figure 1.
//
// Switched topology profiles (metro, wan, geo-3dc - see net/topology.h)
// replace the single bus with per-sender links and a per-site-pair delay
// matrix: every (from, to) edge has its own base delay, jitter distribution,
// and an independent rng stream, so geo-replicated latency structure is
// first-class. The per-edge conservative lookahead is
//     lookahead(from, to) = serialization_time + edge(from, to).base_delay,
// a strict floor under every jitter draw (link wait, uniform noise, and
// hiccup delays are all non-negative); the channel-clock engine synchronizes
// on exactly these floors.
//
// Both media share one send path and one delivery path; they differ only in
// the link clock a frame waits for (the bus, or the sender's NIC) and the rng
// streams its delays are drawn from (one network-wide stream, or one per
// edge).
//
// The model also supports per-receiver message loss (with transport-level
// retransmission so channels stay reliable, as the paper assumes), site
// crash/recovery, and network partitions, all deterministic under a seed.
//
// Driving modes:
//  * Classic (default, and always on the shared bus): one Simulator runs the
//    whole cluster; sends are processed inline and deliveries are events on
//    that Simulator.
//  * Sharded (switched profiles only): the network is the hub shard of a
//    ShardedEngine. Sends are processed inline on the *sending* shard (the
//    per-sender link clock and the per-edge rng streams are sender-local, so
//    no global bus order exists to wait for). Self-deliveries are scheduled
//    immediately on the sending shard; cross-site deliveries land in per-edge
//    staging cells, double-buffered by round parity, and are drained into
//    the receiver's queue in canonical sender order at the receiver's next
//    site phase. Fault checks run at delivery time on the receiver's shard.
//
// Sharded-mode fault model: crash/partition state is only mutated by hub
// control events (or between runs), while site phases read it. Sends are
// checked inline and deliveries at fire time, so a transition applies from
// each site's *next* round: transitions quantize to round boundaries, at
// most one incoming lookahead away from their classic-mode effect - a
// deliberate, deterministic divergence from the classic loop. Fault-free
// sharded runs are bit-identical to the classic loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "net/fault_plan.h"
#include "net/message.h"
#include "net/topology.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {

/// Timing and fault parameters of the simulated segment.
struct NetConfig {
  /// Time a frame occupies the shared medium (10 Mbit/s, ~128-byte frames).
  /// Switched topologies charge it per sender link instead of per bus.
  SimTime serialization_time = 100 * kMicrosecond;
  /// Fixed propagation + stack traversal floor applied to every delivery.
  SimTime base_delay = 50 * kMicrosecond;
  /// Uniform receive-side noise in [0, noise_max) added to every delivery.
  SimTime noise_max = 20 * kMicrosecond;
  /// Probability that a delivery hits a scheduling hiccup. The default pair
  /// (6 %, 310 us) is calibrated against the paper's Figure 1 anchors:
  /// ~82 % spontaneously ordered messages under a saturated 10 Mbit/s bus and
  /// ~99 % at a 4 ms per-site send interval (see bench/fig1_spontaneous_order).
  double hiccup_prob = 0.06;
  /// ...with an additional exponential delay of this mean.
  SimTime hiccup_mean = 310 * kMicrosecond;
  /// Per-delivery drop probability; dropped frames are retransmitted after rto.
  double loss_prob = 0.0;
  /// Retransmission timeout applied per drop.
  SimTime retransmit_timeout = 10 * kMillisecond;
  /// Latency structure: every profile materializes a per-site-pair matrix;
  /// the fields above still supply the frame serialization time, the loss
  /// model and - for the lan profile - the uniform edge parameters. See
  /// net/topology.h.
  TopologyProfile topology = TopologyProfile::lan;
};

/// Deterministic simulated network connecting n sites.
///
/// All sends are stamped with a MsgId whose sequence number counts the
/// sender's sends on that one channel: each (sender, channel) stream is
/// numbered densely from 0, so a protocol can index its own messages by
/// sequence number without gaps left by other channels. A MsgId is therefore
/// unique per channel, not per sender. Deliveries invoke
/// the receiver's subscribed handler for the message's channel. Crashed sites
/// neither send nor receive; partitioned site pairs do not exchange messages
/// while the partition holds.
class Network final : public SharedMedium {
 public:
  using Handler = std::function<void(const Message&)>;

  /// `sim` is the cluster simulator in classic mode, the hub shard in
  /// sharded mode.
  Network(Simulator& sim, std::size_t n_sites, NetConfig config, Rng rng);

  std::size_t site_count() const { return site_count_; }
  const NetConfig& config() const { return config_; }
  /// The materialized per-site-pair matrix.
  const TopologyMatrix& topology() const { return topo_; }

  /// Switches to sharded (staging) mode. The topology must be switched and
  /// the engine's hub must be the Simulator this network was constructed
  /// with.
  void attach_engine(ShardedEngine& engine);

  // -- SharedMedium -----------------------------------------------------------

  /// True when this topology uses per-sender links (channel-clock capable).
  bool switched() const override { return switched_; }
  /// Per-edge lookahead: serialization_time + edge(from, to).base_delay - a
  /// lower bound on (delivery - send) for every message on this edge, under
  /// every jitter draw (only loss retransmission waits can exceed it, and
  /// they only add delay).
  SimTime lookahead(SiteId32 from, SiteId32 to) const override;
  void begin_site_window(SiteId32 site, Simulator& shard) override;
  SimTime earliest_staged(SiteId32 site) override;
  void end_round() override { write_parity_ ^= 1u; }

  /// Registers the handler invoked when `site` receives a message on `channel`.
  /// At most one handler per (site, channel).
  void subscribe(SiteId site, Channel channel, Handler handler);

  /// Broadcasts to every site, including the sender itself (IP-multicast
  /// loopback included). Returns the assigned message id.
  MsgId multicast(SiteId from, Channel channel, PayloadPtr payload);

  /// Point-to-point send. Returns the assigned message id.
  MsgId unicast(SiteId from, SiteId to, Channel channel, PayloadPtr payload);

  /// Crash fault injection: a crashed site sends and receives nothing.
  /// Sharded mode: call from the hub (a Cluster::sim() control event or
  /// between runs), never from a site-shard event.
  void crash(SiteId site);
  void recover(SiteId site);
  bool crashed(SiteId site) const { return crashed_[site]; }

  /// Partition fault injection (symmetric): messages between the two groups
  /// are parked while the partition holds and delivered after healing -
  /// channels stay reliable (the paper's model); only crashes lose messages.
  void partition(const std::vector<SiteId>& group_a, const std::vector<SiteId>& group_b);
  void heal_partition();

  /// Arms the chaos plane: executes `config.plan` deterministically from
  /// `chaos_rng` (split per edge in switched mode) and, when the plan can
  /// duplicate, suppresses re-deliveries of already-seen MsgIds per
  /// receiver. Call once, before the run starts (classic mode) or before the
  /// engine's first round (sharded mode); a run without arm_chaos draws
  /// nothing from the chaos streams and is bit-identical to pre-chaos builds.
  void arm_chaos(const ChaosConfig& config, Rng chaos_rng);
  bool chaos_armed() const { return chaos_ != nullptr || dedup_; }
  /// Chaos counters (all zero unless a plan is armed).
  const ChaosStats& chaos_stats() const { return chaos_stats_; }

  /// Total messages delivered (for bench counters).
  std::uint64_t delivered_count() const { return delivered_; }

  /// Arrival-order recording used by the Figure 1 experiment: when enabled,
  /// every delivery on `channel` is appended to the per-site arrival log.
  void record_arrivals(Channel channel);
  const std::vector<std::vector<MsgId>>& arrival_logs() const { return arrival_logs_; }

 private:
  static constexpr SiteId kEveryone = static_cast<SiteId>(-1);

  /// Serializes one frame from `id.sender` (to one site, or kEveryone for a
  /// multicast) on its link - the shared bus, or the sender's NIC on a
  /// switched topology - and routes one delivery per surviving receiver.
  void send(MsgId id, SiteId to, Channel channel, PayloadPtr payload);
  /// Stages a cross-site delivery when called from a site phase, otherwise
  /// schedules it directly on the receiver's shard (hub phase / idle engine /
  /// classic mode; self-deliveries always schedule directly).
  void route(SiteId from, SiteId to, Message msg, SimTime fire_at);
  void schedule_delivery(SiteId to, Message msg, SimTime fire_at);
  /// Receiver-side delivery: fault checks at fire time on the receiver's
  /// shard, then arrival log + handler dispatch. `msg` is the delivery
  /// event's own capture; a parked message is moved out of it.
  void receive(SiteId to, Message& msg);

  void dispatch(SiteId to, const Message& msg);
  SimTime send_clock() const;
  /// Replays every parked message whose partition AND chaos blocks have
  /// lifted, with a fresh post-heal receiver delay; still-blocked messages
  /// stay parked. Hub control event (heal_partition, chaos transitions).
  void release_unblocked();
  /// True (and counted) when the chaos plane blocks this edge right now.
  bool chaos_blocked(SiteId from, SiteId to) {
    if (chaos_ == nullptr || !chaos_->blocked(from, to)) return false;
    ++chaos_stats_.deliveries_parked;
    return true;
  }
  /// Dedup filter: true when this (channel, MsgId) was already delivered to
  /// `to` and the re-delivery must be suppressed. No-op unless dedup is armed.
  bool duplicate_suppressed(SiteId to, const Message& msg) {
    if (!dedup_) return false;
    auto& seen = seen_[to];
    if (seen.size() <= msg.channel) seen.resize(msg.channel + 1);
    if (seen[msg.channel].insert(msg.id).second) return false;
    ++chaos_stats_.duplicates_suppressed;
    return true;
  }
  Rng& chaos_edge_rng(SiteId from, SiteId to) {
    return chaos_edge_rngs_[from * site_count_ + to];
  }
  Rng& edge_rng(SiteId from, SiteId to) { return edge_rngs_[from * site_count_ + to]; }
  static SimTime sample_receiver_delay(Rng& rng, const EdgeParams& edge);

  Simulator& sim_;  // the hub shard in sharded mode
  std::size_t site_count_;
  NetConfig config_;
  TopologyMatrix topo_;
  bool switched_ = false;
  Rng rng_;
  ShardedEngine* engine_ = nullptr;
  /// Assigns the next MsgId of `from` on `channel`.
  MsgId next_id(SiteId from, Channel channel);

  std::vector<std::vector<std::uint64_t>> next_seq_;    // [sender][channel]
  std::vector<std::vector<Handler>> handlers_;          // [site][channel]
  std::vector<bool> crashed_;
  std::vector<std::uint32_t> partition_group_;          // 0 = none/all together
  SimTime bus_free_at_ = 0;                             // shared-bus serialization
  std::vector<SimTime> link_free_at_;                   // switched: per sender NIC
  std::vector<Rng> edge_rngs_;                          // switched: [from*n+to]
  std::uint64_t delivered_ = 0;
  std::vector<std::vector<Message>> held_by_;     // per receiver, parked by a partition
  std::optional<Channel> recorded_channel_;
  std::vector<std::vector<MsgId>> arrival_logs_;

  // Chaos plane (null/empty unless arm_chaos ran; the chaos rng streams are
  // split lazily there, so chaos-off runs never perturb the base streams).
  std::unique_ptr<ChaosRuntime> chaos_;
  Rng chaos_rng_{0};                     // shared bus: the one draw stream
  std::vector<Rng> chaos_edge_rngs_;     // switched: [from*n+to]
  bool dedup_ = false;
  std::vector<std::vector<std::unordered_set<MsgId>>> seen_;  // [receiver][channel]
  ChaosStats chaos_stats_;

  // Sharded-mode staging: per-edge cells, double-buffered by round parity.
  // buf[write_parity_] is appended by the sending shard during its phase;
  // buf[write_parity_ ^ 1] (flipped at the end of the round) is drained by
  // the receiving shard at its next phase start. A delivery staged in one
  // round therefore enters the receiver's queue in the next.
  struct StagedDelivery {
    SimTime at = 0;
    Message msg;
  };
  struct EdgeCell {
    std::vector<StagedDelivery> buf[2];
    SimTime min_at[2] = {kSimTimeMax, kSimTimeMax};
  };
  std::vector<EdgeCell> staged_;  // [from*n+to]
  unsigned write_parity_ = 0;
};

}  // namespace otpdb
