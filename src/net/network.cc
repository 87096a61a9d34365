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
      flat_edge_{config.base_delay, config.noise_max, config.hiccup_prob, config.hiccup_mean},
      switched_(topo_.switched),
      rng_(rng),
      next_seq_(n_sites),
      send_order_(n_sites, 0),
      handlers_(n_sites),
      crashed_(n_sites, false),
      partition_group_(n_sites, 0),
      delivered_by_(n_sites, 0),
      held_by_(n_sites),
      arrival_logs_(n_sites),
      chaos_rows_(n_sites + 1) {
  OTPDB_CHECK(n_sites >= 1);
  if (switched_) {
    link_free_at_.assign(n_sites, 0);
    // One rng stream per (from, to) edge, split off in row-major order at
    // construction. Shared-bus profiles never split, so the flat/lan rng_
    // stream is untouched and bit-identical to the pre-topology code.
    edge_rngs_.reserve(n_sites * n_sites);
    for (std::size_t e = 0; e < n_sites * n_sites; ++e) edge_rngs_.push_back(rng_.split());
  }
}

void Network::attach_engine(ShardedEngine& engine) {
  OTPDB_CHECK_MSG(&engine.hub() == &sim_,
                  "the network must be constructed on the engine's hub shard");
  OTPDB_CHECK_MSG(engine.site_count() == site_count_, "engine/network site count mismatch");
  sharded_ = true;
  engine_ = &engine;
  if (switched_) {
    staged_.resize(site_count_ * site_count_);
  } else {
    outbox_.resize(site_count_);
    inbox_.resize(site_count_);
  }
  engine.attach_medium(this);
}

SimTime Network::lookahead() const {
  if (topo_.flat()) return config_.serialization_time + config_.base_delay;
  SimTime min_la = kSimTimeMax;
  for (std::size_t from = 0; from < site_count_; ++from) {
    for (std::size_t to = 0; to < site_count_; ++to) {
      if (from == to && site_count_ > 1) continue;
      min_la = std::min(min_la, config_.serialization_time + topo_.edge(from, to).base_delay);
    }
  }
  return min_la;
}

SimTime Network::lookahead(SiteId32 from, SiteId32 to) const {
  return config_.serialization_time + edge_params(from, to).base_delay;
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
  const Simulator* active = active_shard();
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

void Network::deliver(SiteId to, Message msg, SimTime fire_at) {
  std::uint32_t slot;
  if (!free_flight_slots_.empty()) {
    slot = free_flight_slots_.back();
    free_flight_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  in_flight_[slot].to = to;
  in_flight_[slot].msg = std::move(msg);
  sim_.schedule_at(fire_at, [this, slot] { deliver_now(slot); });
}

void Network::deliver_now(std::uint32_t slot) {
  const SiteId to = in_flight_[slot].to;
  Message msg = std::move(in_flight_[slot].msg);
  free_flight_slots_.push_back(slot);
  // Re-check at delivery time: the receiver may have crashed in flight.
  // A crash loses the message (the paper's crash model; recovery replays
  // from peers); a partition merely delays it - channels stay reliable
  // ("a message sent by Ni to Nj is eventually received"), so the message
  // is retried until the partition heals or an endpoint crashes.
  if (crashed_[to] || crashed_[msg.from]) return;
  if (partition_group_[msg.from] != partition_group_[to] ||
      chaos_blocked(msg.from, to, chaos_hub_row())) {
    held_by_[to].push_back(std::move(msg));  // parked until the block lifts
    return;
  }
  if (duplicate_suppressed(to, msg, chaos_hub_row())) return;
  if (recorded_channel_ && msg.channel == *recorded_channel_) {
    arrival_logs_[to].push_back(msg.id);
  }
  ++delivered_by_[to];
  if (sharded_) {
    // Hand the handler invocation off to the receiver's shard; it fires at
    // this same timestamp when the site phase of this window runs.
    inbox_[to].push_back(Handoff{sim_.now(), std::move(msg)});
    return;
  }
  dispatch(to, msg);
}

void Network::dispatch(SiteId to, const Message& msg) {
  const auto& per_site = handlers_[to];
  if (msg.channel < per_site.size() && per_site[msg.channel]) {
    per_site[msg.channel](msg);
  }
}

void Network::begin_site_window(SiteId32 site, Simulator& shard) {
  if (switched_) {
    // Drain the read-parity side of this receiver's staging cells, in
    // canonical sender order; within a cell in staging order (the sender's
    // own event order). Both are worker-count independent, so the receiver's
    // event-seq assignment is too.
    const unsigned read = write_parity_ ^ 1u;
    for (SiteId from = 0; from < site_count_; ++from) {
      EdgeCell& cell = staged_[from * site_count_ + site];
      auto& buf = cell.buf[read];
      for (auto& staged : buf) {
        shard.schedule_at(staged.at, [this, site, msg = std::move(staged.msg)]() mutable {
          deliver_switched_now(site, std::move(msg));
        });
      }
      buf.clear();
      cell.min_at[read] = kSimTimeMax;
    }
    return;
  }
  auto& box = inbox_[site];
  for (auto& handoff : box) {
    shard.schedule_at(handoff.at, [this, site, msg = std::move(handoff.msg)] {
      dispatch(site, msg);
    });
  }
  box.clear();
}

void Network::flush_outboxes() {
  if (switched_) return;  // sends are processed inline on the sending shard
  flush_scratch_.clear();
  for (auto& box : outbox_) {
    for (auto& request : box) flush_scratch_.push_back(std::move(request));
    box.clear();
  }
  // Canonical processing order: send time, then sender, then the sender's
  // own send order (across channels: sequence numbers are per channel).
  // Independent of which worker ran which shard, so the bus serialization
  // and the rng stream (receiver delays, loss) are identical for every
  // thread count.
  std::sort(flush_scratch_.begin(), flush_scratch_.end(),
            [](const SendRequest& a, const SendRequest& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.id.sender != b.id.sender) return a.id.sender < b.id.sender;
              return a.order < b.order;
            });
  for (auto& request : flush_scratch_) process_send(request);
  flush_scratch_.clear();
}

SimTime Network::earliest_staged(SiteId32 site) {
  if (!switched_) return kSimTimeMax;
  // Called by the coordinator between phases, when write-parity cells are
  // empty by construction (they were last round's read side and have been
  // drained) - only the read side can hold undrained deliveries.
  const unsigned read = write_parity_ ^ 1u;
  SimTime earliest = kSimTimeMax;
  for (SiteId from = 0; from < site_count_; ++from) {
    earliest = std::min(earliest, staged_[from * site_count_ + site].min_at[read]);
  }
  return earliest;
}

void Network::process_send(SendRequest& request) {
  const SiteId from = request.id.sender;
  if (crashed_[from]) return;  // a crashed site's sends vanish
  // A unicast to a dead receiver never reaches the wire and must not occupy
  // the bus (the pre-sharding model; multicasts still serialize one frame
  // for the surviving receivers).
  if (request.to != kEveryone && crashed_[request.to]) return;

  // The shared medium serializes frames: the frame reaches the wire when the
  // bus frees up, and every receiver's delay is measured from that point.
  const SimTime wire_at = std::max(request.at, bus_free_at_);
  bus_free_at_ = wire_at + config_.serialization_time;
  const SimTime on_wire = bus_free_at_ - request.at;

  if (request.to == kEveryone) {
    Message msg{request.id, from, request.channel, std::move(request.payload)};
    for (SiteId to = 0; to < site_count_; ++to) {
      if (crashed_[to]) continue;  // partitioned receivers are handled at delivery
      SimTime delay = on_wire + sample_receiver_delay(rng_, edge_params(from, to));
      // Loss + retransmission: each drop defers delivery by one timeout. The
      // channel stays reliable (paper model) but late arrivals perturb order.
      while (rng_.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
      if (chaos_ != nullptr && to != from) {
        const auto p = chaos_->perturb(from, to, request.at, chaos_rng_, chaos_hub_row());
        delay += p.extra;
        if (p.duplicate) deliver(to, msg, request.at + delay + p.duplicate_extra);
      }
      deliver(to, msg, request.at + delay);
    }
  } else {
    SimTime delay = on_wire + sample_receiver_delay(rng_, edge_params(from, request.to));
    while (rng_.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
    Message msg{request.id, from, request.channel, std::move(request.payload)};
    if (chaos_ != nullptr && request.to != from) {
      const auto p = chaos_->perturb(from, request.to, request.at, chaos_rng_, chaos_hub_row());
      delay += p.extra;
      if (p.duplicate) deliver(request.to, msg, request.at + delay + p.duplicate_extra);
    }
    deliver(request.to, std::move(msg), request.at + delay);
  }
}

void Network::process_send_switched(SendRequest& request) {
  const SiteId from = request.id.sender;
  if (crashed_[from]) return;  // a crashed site's sends vanish
  if (request.to != kEveryone && crashed_[request.to]) return;

  // Per-sender link: the frame leaves when this sender's NIC frees up; every
  // receiver's edge delay is measured from that point. All state touched here
  // (link clock, per-edge rng rows, staging cells of row `from`) is owned by
  // the sending shard, which is what makes inline processing race-free.
  SimTime& link = link_free_at_[from];
  const SimTime wire_at = std::max(request.at, link);
  link = wire_at + config_.serialization_time;
  const SimTime on_wire = link - request.at;

  if (request.to == kEveryone) {
    Message msg{request.id, from, request.channel, std::move(request.payload)};
    for (SiteId to = 0; to < site_count_; ++to) {
      if (crashed_[to]) continue;
      Rng& rng = edge_rng(from, to);
      SimTime delay = on_wire + sample_receiver_delay(rng, edge_params(from, to));
      while (rng.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
      if (chaos_ != nullptr && to != from) {
        // Per-edge chaos stream + sender-owned stats row: both are touched
        // only during the sending shard's phase, like the link clock above.
        const auto p =
            chaos_->perturb(from, to, request.at, chaos_edge_rng(from, to), chaos_row(from));
        delay += p.extra;
        if (p.duplicate) route_switched(from, to, msg, request.at + delay + p.duplicate_extra);
      }
      route_switched(from, to, msg, request.at + delay);
    }
  } else {
    Rng& rng = edge_rng(from, request.to);
    SimTime delay = on_wire + sample_receiver_delay(rng, edge_params(from, request.to));
    while (rng.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
    Message msg{request.id, from, request.channel, std::move(request.payload)};
    if (chaos_ != nullptr && request.to != from) {
      const auto p = chaos_->perturb(from, request.to, request.at,
                                     chaos_edge_rng(from, request.to), chaos_row(from));
      delay += p.extra;
      if (p.duplicate) route_switched(from, request.to, msg, request.at + delay + p.duplicate_extra);
    }
    route_switched(from, request.to, std::move(msg), request.at + delay);
  }
}

void Network::route_switched(SiteId from, SiteId to, Message msg, SimTime fire_at) {
  Simulator* active = active_shard();
  const bool site_phase = engine_ != nullptr && active != nullptr && active != &sim_;
  if (site_phase && to != from) {
    // Cross-site delivery from a site phase: stage it on the write-parity
    // side of the edge cell; the barrier flips parity and the receiver's
    // worker drains it at its next phase start. The engine's per-edge bound
    // guarantees fire_at is never behind the receiver's clock by then.
    EdgeCell& cell = staged_[from * site_count_ + to];
    auto& buf = cell.buf[write_parity_];
    buf.push_back(StagedDelivery{fire_at, std::move(msg)});
    cell.min_at[write_parity_] = std::min(cell.min_at[write_parity_], fire_at);
    return;
  }
  // Self-deliveries (multicast loopback) land inline on the sending shard;
  // hub control events, the idle engine, and classic mode schedule directly
  // on the receiver (single-threaded in all three cases).
  schedule_delivery(to, std::move(msg), fire_at);
}

void Network::schedule_delivery(SiteId to, Message msg, SimTime fire_at) {
  Simulator& target = engine_ != nullptr ? engine_->site(to) : sim_;
  target.schedule_at(fire_at, [this, to, msg = std::move(msg)]() mutable {
    deliver_switched_now(to, std::move(msg));
  });
}

void Network::deliver_switched_now(SiteId to, Message msg) {
  // Fault checks at fire time on the receiver's shard. Crash/partition state
  // only mutates in hub phases (or between runs), which the engine barrier
  // orders against every site phase.
  if (crashed_[to] || crashed_[msg.from]) return;
  if (partition_group_[msg.from] != partition_group_[to] ||
      chaos_blocked(msg.from, to, chaos_row(to))) {
    held_by_[to].push_back(std::move(msg));  // parked until the block lifts
    return;
  }
  if (duplicate_suppressed(to, msg, chaos_row(to))) return;
  if (recorded_channel_ && msg.channel == *recorded_channel_) {
    arrival_logs_[to].push_back(msg.id);
  }
  ++delivered_by_[to];
  dispatch(to, msg);
}

MsgId Network::next_id(SiteId from, Channel channel) {
  OTPDB_CHECK(from < site_count_);
  auto& per_channel = next_seq_[from];
  if (per_channel.size() <= channel) per_channel.resize(channel + 1, 0);
  ++send_order_[from];
  return MsgId{from, per_channel[channel]++};
}

MsgId Network::multicast(SiteId from, Channel channel, PayloadPtr payload) {
  const MsgId id = next_id(from, channel);
  const std::uint64_t order = send_order_[from];
  if (switched_) {
    SendRequest request{send_clock(), id, order, kEveryone, channel, std::move(payload)};
    process_send_switched(request);
    return id;
  }
  if (sharded_) {
    // Buffered until the window barrier, where crash checks see the fault
    // state as of the window END: fault transitions are quantized to window
    // boundaries (<= lookahead, 150us under LAN defaults) relative to the
    // classic loop. See the fault-model note in the header.
    outbox_[from].push_back(
        SendRequest{send_clock(), id, order, kEveryone, channel, std::move(payload)});
    return id;
  }
  SendRequest request{sim_.now(), id, order, kEveryone, channel, std::move(payload)};
  process_send(request);
  return id;
}

MsgId Network::unicast(SiteId from, SiteId to, Channel channel, PayloadPtr payload) {
  OTPDB_CHECK(to < site_count_);
  const MsgId id = next_id(from, channel);
  const std::uint64_t order = send_order_[from];
  if (switched_) {
    SendRequest request{send_clock(), id, order, to, channel, std::move(payload)};
    process_send_switched(request);
    return id;
  }
  if (sharded_) {
    outbox_[from].push_back(SendRequest{send_clock(), id, order, to, channel, std::move(payload)});
    return id;
  }
  SendRequest request{sim_.now(), id, order, to, channel, std::move(payload)};
  process_send(request);
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
  // messages stay parked for the next transition. Canonical replay order:
  // receiver, then park order - worker-count independent (cells are parked
  // by deterministic receiver-shard replays).
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
      if (chaos_ != nullptr) ++chaos_hub_row().parked_released;
      if (switched_) {
        const SimTime fire =
            sim_.now() + config_.retransmit_timeout +
            sample_receiver_delay(edge_rng(from, to), edge_params(from, to));
        // Channel clocks: the receiver's shard may already sit past the hub
        // clock; clamp so the replay never lands in its local past. (Release
        // is a hub control event; the receiver can be at most one incoming
        // lookahead ahead, so the clamp moves the replay by < lookahead.)
        Simulator& target = engine_ != nullptr ? engine_->site(to) : sim_;
        schedule_delivery(to, std::move(msg), std::max(fire, target.now()));
      } else {
        deliver(to, std::move(msg),
                sim_.now() + config_.retransmit_timeout +
                    sample_receiver_delay(rng_, edge_params(from, to)));
      }
    }
  }
}

void Network::arm_chaos(const ChaosConfig& config, Rng chaos_rng) {
  OTPDB_CHECK_MSG(chaos_ == nullptr && !dedup_, "chaos already armed");
  chaos_rng_ = chaos_rng;
  // Duplication makes "reliable" mean at-least-once; the abcast layer
  // asserts at-most-once per MsgId, so dedup is mandatory whenever the plan
  // can duplicate.
  dedup_ = config.transport_dedup || config.plan.has(FaultKind::duplicate);
  if (dedup_) seen_.resize(site_count_);
  if (config.plan.empty()) return;
  chaos_ = std::make_unique<ChaosRuntime>(config.plan, site_count_);
  if (switched_) {
    // One chaos stream per edge, mirroring edge_rngs_: sender-owned rows, so
    // switched sharded sends can draw race-free on the sending shard.
    chaos_edge_rngs_.reserve(site_count_ * site_count_);
    for (std::size_t e = 0; e < site_count_ * site_count_; ++e) {
      chaos_edge_rngs_.push_back(chaos_rng_.split());
    }
  }
  chaos_->arm(sim_, [this] { release_unblocked(); }, chaos_hub_row());
}

ChaosStats Network::chaos_stats() const {
  ChaosStats total;
  for (const ChaosStats& row : chaos_rows_) total.merge(row);
  return total;
}

void Network::record_arrivals(Channel channel) { recorded_channel_ = channel; }

}  // namespace otpdb
