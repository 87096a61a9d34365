#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

Network::Network(Simulator& sim, std::size_t n_sites, NetConfig config, Rng rng)
    : sim_(sim),
      site_count_(n_sites),
      config_(config),
      topo_(build_topology(config.topology, n_sites,
                           EdgeParams{config.base_delay, config.noise_max, config.hiccup_prob,
                                      config.hiccup_mean})),
      switched_(topo_.switched),
      rng_(rng),
      next_seq_(n_sites),
      handlers_(n_sites),
      crashed_(n_sites, false),
      partition_group_(n_sites, 0),
      held_by_(n_sites),
      arrival_logs_(n_sites) {
  OTPDB_CHECK(n_sites >= 1);
  if (switched_) {
    link_free_at_.assign(n_sites, 0);
    // One rng stream per (from, to) edge, split off in row-major order at
    // construction. The shared bus never splits, so its rng_ stream is
    // untouched and bit-identical to the pre-topology code.
    edge_rngs_.reserve(n_sites * n_sites);
    for (std::size_t e = 0; e < n_sites * n_sites; ++e) edge_rngs_.push_back(rng_.split());
  }
}

void Network::attach_engine(ShardedEngine& engine) {
  OTPDB_CHECK_MSG(&engine.hub() == &sim_,
                  "the network must be constructed on the engine's hub shard");
  OTPDB_CHECK_MSG(engine.site_count() == site_count_, "engine/network site count mismatch");
  engine.attach_medium(this);  // checks that the topology is switched
  engine_ = &engine;
  staged_.resize(site_count_ * site_count_);
}

SimTime Network::lookahead(SiteId32 from, SiteId32 to) const {
  return config_.serialization_time + topo_.edge(from, to).base_delay;
}

void Network::subscribe(SiteId site, Channel channel, Handler handler) {
  OTPDB_CHECK(site < site_count_);
  auto& per_site = handlers_[site];
  if (per_site.size() <= channel) per_site.resize(channel + 1);
  OTPDB_CHECK_MSG(!per_site[channel], "channel already subscribed at this site");
  per_site[channel] = std::move(handler);
}

SimTime Network::send_clock() const {
  // Sharded mode: the sending shard's clock (a site shard during its phase,
  // the hub during control events). Outside any phase - e.g. a test poking
  // the network between runs - fall back to the hub clock.
  const Simulator* active = engine_ != nullptr ? engine_->active_shard() : nullptr;
  return active ? active->now() : sim_.now();
}

SimTime Network::sample_receiver_delay(Rng& rng, const EdgeParams& edge) {
  SimTime delay = edge.base_delay +
                  static_cast<SimTime>(rng.uniform_double(0.0, static_cast<double>(edge.noise_max)));
  if (rng.bernoulli(edge.hiccup_prob)) {
    delay += static_cast<SimTime>(rng.exponential(static_cast<double>(edge.hiccup_mean)));
  }
  return delay;
}

void Network::dispatch(SiteId to, const Message& msg) {
  const auto& per_site = handlers_[to];
  if (msg.channel < per_site.size() && per_site[msg.channel]) {
    per_site[msg.channel](msg);
  }
}

void Network::begin_site_window(SiteId32 site, Simulator& shard) {
  // Drain the read-parity side of this receiver's staging cells, in
  // canonical sender order; within a cell in staging order (the sender's own
  // event order).
  const unsigned read = write_parity_ ^ 1u;
  for (SiteId from = 0; from < site_count_; ++from) {
    EdgeCell& cell = staged_[from * site_count_ + site];
    auto& buf = cell.buf[read];
    for (auto& staged : buf) {
      shard.schedule_at(staged.at, [this, site, msg = std::move(staged.msg)]() mutable {
        receive(site, msg);
      });
    }
    buf.clear();
    cell.min_at[read] = kSimTimeMax;
  }
}

SimTime Network::earliest_staged(SiteId32 site) {
  // Called between rounds, when write-parity cells are empty by construction
  // (they were last round's read side and have been drained) - only the read
  // side can hold undrained deliveries.
  const unsigned read = write_parity_ ^ 1u;
  SimTime earliest = kSimTimeMax;
  for (SiteId from = 0; from < site_count_; ++from) {
    earliest = std::min(earliest, staged_[from * site_count_ + site].min_at[read]);
  }
  return earliest;
}

void Network::send(MsgId id, SiteId to, Channel channel, PayloadPtr payload) {
  const SiteId from = id.sender;
  if (crashed_[from]) return;  // a crashed site's sends vanish
  // A unicast to a dead receiver never reaches the wire and must not occupy
  // the link (multicasts still serialize one frame for the surviving
  // receivers).
  if (to != kEveryone && crashed_[to]) return;

  // The frame reaches the wire when its link frees up - the shared bus, or
  // the sender's own NIC on a switched topology - and every receiver's delay
  // is measured from that point. On a switched topology all state touched
  // here (link clock, per-edge rng rows, staging cells of row `from`)
  // belongs to the sender, which is what lets the sending shard process it
  // inline.
  const SimTime at = send_clock();
  SimTime& link = switched_ ? link_free_at_[from] : bus_free_at_;
  const SimTime wire_at = std::max(at, link);
  link = wire_at + config_.serialization_time;
  const SimTime on_wire = link - at;

  const Message msg{id, from, channel, std::move(payload)};
  const SiteId first = to == kEveryone ? 0 : to;
  const SiteId last = to == kEveryone ? static_cast<SiteId>(site_count_) : to + 1;
  for (SiteId r = first; r < last; ++r) {
    if (crashed_[r]) continue;  // partitioned receivers are handled at delivery
    Rng& rng = switched_ ? edge_rng(from, r) : rng_;
    SimTime delay = on_wire + sample_receiver_delay(rng, topo_.edge(from, r));
    // Loss + retransmission: each drop defers delivery by one timeout. The
    // channel stays reliable (paper model) but late arrivals perturb order.
    while (rng.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
    if (chaos_ != nullptr && r != from) {
      // A switched send draws from its edge's chaos stream, like the jitter
      // draws above.
      Rng& chaos_rng = switched_ ? chaos_edge_rng(from, r) : chaos_rng_;
      const auto p = chaos_->perturb(from, r, at, chaos_rng, chaos_stats_);
      delay += p.extra;
      if (p.duplicate) route(from, r, msg, at + delay + p.duplicate_extra);
    }
    route(from, r, msg, at + delay);
  }
}

void Network::route(SiteId from, SiteId to, Message msg, SimTime fire_at) {
  const Simulator* active = engine_ != nullptr ? engine_->active_shard() : nullptr;
  const bool site_phase = active != nullptr && active != &sim_;
  if (site_phase && to != from) {
    // Cross-site delivery from a site phase: stage it on the write-parity
    // side of the edge cell; the end of the round flips parity and the
    // receiver drains it at its next phase start. The engine's per-edge bound
    // guarantees fire_at is never behind the receiver's clock by then.
    EdgeCell& cell = staged_[from * site_count_ + to];
    auto& buf = cell.buf[write_parity_];
    buf.push_back(StagedDelivery{fire_at, std::move(msg)});
    cell.min_at[write_parity_] = std::min(cell.min_at[write_parity_], fire_at);
    return;
  }
  // Self-deliveries (multicast loopback) land inline on the sending shard;
  // hub control events, the idle engine, and classic mode schedule directly
  // on the receiver.
  schedule_delivery(to, std::move(msg), fire_at);
}

void Network::schedule_delivery(SiteId to, Message msg, SimTime fire_at) {
  Simulator& target = engine_ != nullptr ? engine_->site(to) : sim_;
  target.schedule_at(fire_at, [this, to, msg = std::move(msg)]() mutable {
    receive(to, msg);
  });
}

void Network::receive(SiteId to, Message& msg) {
  // Fault checks at fire time on the receiver's shard. A crash loses the
  // message (the paper's crash model; recovery replays from peers); a
  // partition merely delays it - channels stay reliable ("a message sent by
  // Ni to Nj is eventually received"), so the message is parked until the
  // partition heals or an endpoint crashes. Crash/partition state only
  // mutates in hub phases (or between runs).
  if (crashed_[to] || crashed_[msg.from]) return;
  if (partition_group_[msg.from] != partition_group_[to] || chaos_blocked(msg.from, to)) {
    held_by_[to].push_back(std::move(msg));  // parked until the block lifts
    return;
  }
  if (duplicate_suppressed(to, msg)) return;
  if (recorded_channel_ && msg.channel == *recorded_channel_) {
    arrival_logs_[to].push_back(msg.id);
  }
  ++delivered_;
  dispatch(to, msg);
}

MsgId Network::next_id(SiteId from, Channel channel) {
  OTPDB_CHECK(from < site_count_);
  auto& per_channel = next_seq_[from];
  if (per_channel.size() <= channel) per_channel.resize(channel + 1, 0);
  return MsgId{from, per_channel[channel]++};
}

MsgId Network::multicast(SiteId from, Channel channel, PayloadPtr payload) {
  const MsgId id = next_id(from, channel);
  send(id, kEveryone, channel, std::move(payload));
  return id;
}

MsgId Network::unicast(SiteId from, SiteId to, Channel channel, PayloadPtr payload) {
  OTPDB_CHECK(to < site_count_);
  const MsgId id = next_id(from, channel);
  send(id, to, channel, std::move(payload));
  return id;
}

void Network::crash(SiteId site) {
  OTPDB_CHECK(site < site_count_);
  crashed_[site] = true;
}

void Network::recover(SiteId site) {
  OTPDB_CHECK(site < site_count_);
  crashed_[site] = false;
}

void Network::partition(const std::vector<SiteId>& group_a, const std::vector<SiteId>& group_b) {
  for (SiteId s : group_a) partition_group_[s] = 1;
  for (SiteId s : group_b) partition_group_[s] = 2;
}

void Network::heal_partition() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
  release_unblocked();
}

void Network::release_unblocked() {
  // Reliable channels: everything parked during a split (or a chaos block)
  // flows once every block on its edge has lifted, with a fresh receiver
  // delay per message (modelling post-heal retransmission); still-blocked
  // messages stay parked for the next transition. Replay order: receiver,
  // then park order.
  for (SiteId to = 0; to < site_count_; ++to) {
    if (held_by_[to].empty()) continue;
    std::vector<Message> held = std::move(held_by_[to]);
    held_by_[to].clear();
    for (auto& msg : held) {
      const SiteId from = msg.from;
      if (partition_group_[from] != partition_group_[to] ||
          (chaos_ != nullptr && chaos_->blocked(from, to))) {
        held_by_[to].push_back(std::move(msg));
        continue;
      }
      if (chaos_ != nullptr) ++chaos_stats_.parked_released;
      Rng& rng = switched_ ? edge_rng(from, to) : rng_;
      const SimTime fire = sim_.now() + config_.retransmit_timeout +
                           sample_receiver_delay(rng, topo_.edge(from, to));
      // Channel clocks: the receiver's shard may already sit past the hub
      // clock; clamp so the replay never lands in its local past. (Release
      // is a hub control event; the receiver can be at most one incoming
      // lookahead ahead, so the clamp moves the replay by < lookahead.)
      Simulator& target = engine_ != nullptr ? engine_->site(to) : sim_;
      schedule_delivery(to, std::move(msg), std::max(fire, target.now()));
    }
  }
}

void Network::arm_chaos(const ChaosConfig& config, Rng chaos_rng) {
  OTPDB_CHECK_MSG(chaos_ == nullptr && !dedup_, "chaos already armed");
  chaos_rng_ = chaos_rng;
  // Duplication makes "reliable" mean at-least-once; the abcast layer
  // asserts at-most-once per MsgId, so dedup is mandatory whenever the plan
  // can duplicate.
  dedup_ = config.plan.has(FaultKind::duplicate);
  if (dedup_) seen_.resize(site_count_);
  if (config.plan.empty()) return;
  chaos_ = std::make_unique<ChaosRuntime>(config.plan, site_count_);
  if (switched_) {
    // One chaos stream per edge, mirroring edge_rngs_: a switched send draws
    // only from its own edge's streams.
    chaos_edge_rngs_.reserve(site_count_ * site_count_);
    for (std::size_t e = 0; e < site_count_ * site_count_; ++e) {
      chaos_edge_rngs_.push_back(chaos_rng_.split());
    }
  }
  chaos_->arm(sim_, [this] { release_unblocked(); }, chaos_stats_);
}

void Network::record_arrivals(Channel channel) { recorded_channel_ = channel; }

}  // namespace otpdb
