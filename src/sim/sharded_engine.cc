#include "sim/sharded_engine.h"

#include <algorithm>

#include "util/assert.h"

namespace otpdb {

namespace {

/// The autotuner's target band of events per active shard per round: below
/// it the per-round bookkeeping dominates the work (the cap doubles), above
/// it the cap halves.
constexpr std::uint64_t kTargetEventsLo = 16;
constexpr std::uint64_t kTargetEventsHi = 256;

/// a + b without overflowing past the "no event" sentinel.
inline SimTime sat_add(SimTime a, SimTime b) {
  return a >= kSimTimeMax - b ? kSimTimeMax : a + b;
}

}  // namespace

ShardedEngine::ShardedEngine(std::size_t n_sites) {
  OTPDB_CHECK(n_sites >= 1);
  sites_.reserve(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) sites_.push_back(std::make_unique<Simulator>());
}

void ShardedEngine::attach_medium(SharedMedium* medium) {
  OTPDB_CHECK(medium != nullptr);
  OTPDB_CHECK_MSG(medium_ == nullptr, "medium already attached");
  OTPDB_CHECK_MSG(medium->switched(),
                  "the sharded engine requires a switched medium "
                  "(topology profile metro, wan or geo-3dc)");
  medium_ = medium;
  const std::size_t n = sites_.size();
  bounds_.assign(n, 0);
  eot_.assign(n, 0);

  // Read the lookahead matrix into dist_ and derive the autotuner's cap range
  // from its extremes.
  dist_.resize(n * n);
  std::vector<SimTime> min_in(n, kSimTimeMax);
  SimTime min_lookahead = kSimTimeMax;
  SimTime max_lookahead = 0;
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const SimTime la = medium->lookahead(static_cast<SiteId32>(from),
                                           static_cast<SiteId32>(to));
      OTPDB_CHECK_MSG(la >= 1, "per-edge lookahead must be positive");
      dist_[from * n + to] = la;
      // The hub may originate a send on any site's behalf (control events),
      // so its edge into `to` is the weakest incoming one, self included.
      min_in[to] = std::min(min_in[to], la);
      if (from != to) {
        min_lookahead = std::min(min_lookahead, la);
        max_lookahead = std::max(max_lookahead, la);
      }
    }
  }
  if (min_lookahead == kSimTimeMax) min_lookahead = dist_[0];  // single site: loopback

  // Shortest-path closure (Floyd-Warshall) of the lookahead graph. A message
  // chain r -> q -> ... -> s reacting within one round is delayed by at least
  // the sum of the edge lookaheads along the path, so the safe per-round
  // bound for s is min over ALL shards r of EOT_r + dist_(r, s) - including
  // r == s, whose entry is the cheapest round trip via a peer: a site's own
  // in-phase sends can wake an idle neighbor whose reply must not land in
  // the sender's past. (Self staging never happens - loopback is inline - so
  // the diagonal starts at infinity, not lookahead(s, s).)
  for (std::size_t s = 0; s < n; ++s) dist_[s * n + s] = kSimTimeMax;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime ik = dist_[i * n + k];
      if (ik == kSimTimeMax) continue;
      for (std::size_t j = 0; j < n; ++j) {
        dist_[i * n + j] = std::min(dist_[i * n + j], sat_add(ik, dist_[k * n + j]));
      }
    }
  }
  // The hub reaches s directly over its weakest incoming edge or by waking
  // any site r first and chaining through the graph.
  hub_dist_.assign(n, kSimTimeMax);
  for (std::size_t s = 0; s < n; ++s) {
    hub_dist_[s] = min_in[s];
    for (std::size_t r = 0; r < n; ++r) {
      hub_dist_[s] = std::min(hub_dist_[s], sat_add(min_in[r], dist_[r * n + s]));
    }
  }
  window_min_ = min_lookahead;
  window_max_ = std::max(64 * min_lookahead, max_lookahead);
  window_ = 4 * min_lookahead;
}

void ShardedEngine::run_until(SimTime deadline) {
  OTPDB_CHECK_MSG(medium_ != nullptr, "attach_medium before running the sharded engine");
  const std::size_t n = sites_.size();
  for (;;) {
    // Earliest output time per shard: the soonest instant it could still
    // execute an event (and hence send). Shard queues are append-only
    // between rounds and staged deliveries are tracked by the medium, so
    // EOT == min(next local event, earliest staged delivery); idle shards
    // (kSimTimeMax) constrain nobody. The hub never receives messages, so
    // its EOT is simply its next control event.
    const SimTime hub_eot = hub_.next_event_time();
    SimTime global_next = hub_eot;
    for (std::size_t s = 0; s < n; ++s) {
      const SimTime next = std::min(sites_[s]->next_event_time(),
                                    medium_->earliest_staged(static_cast<SiteId32>(s)));
      eot_[s] = next;
      global_next = std::min(global_next, next);
    }
    if (global_next > deadline) break;

    // Channel-clock bounds: site s may run to
    //   min over shards r of (EOT_r + dist(r -> s)),
    // where dist is the shortest-path closure of the lookahead graph (the
    // r == s entry is the cheapest round trip via a peer, capping how far s
    // may outrun the echoes of its own in-phase sends), also bounded by the
    // hub (control events may send on any edge and mutate network-wide
    // fault state).
    SimTime hub_end = deadline;
    unsigned active_sites = 0;
    for (std::size_t s = 0; s < n; ++s) {
      SimTime bound = deadline;
      const SimTime* d_in = dist_.data() + s;  // column s, stride n
      for (std::size_t r = 0; r < n; ++r) {
        bound = std::min(bound, sat_add(eot_[r], d_in[r * n]));
      }
      bound = std::min(bound, sat_add(hub_eot, hub_dist_[s]));
      if (eot_[s] <= bound) {
        ++active_sites;
        // The autotuned cap limits per-round work, measured from the first
        // event this site will actually run.
        bound = std::min(bound, sat_add(eot_[s], window_));
      }
      bounds_[s] = bound;
      hub_end = std::min(hub_end, bound);
    }
    stats_.site_activations += active_sites;

    // 1. Hub phase: control events run to the slowest site bound; their
    // sends schedule directly onto the site shards.
    active_ = &hub_;
    hub_.run_until(hub_end);

    // 2. Site phase, in site order: each shard drains its staged deliveries
    // (canonical sender order) and runs to its own bound; sends process
    // inline on the sending shard and stage cross-site deliveries per edge.
    const std::uint64_t before = executed();
    for (std::size_t s = 0; s < n; ++s) {
      active_ = sites_[s].get();
      medium_->begin_site_window(static_cast<SiteId32>(s), *active_);
      active_->run_until(bounds_[s]);
    }
    active_ = nullptr;

    // 3. Flip staging parity: this round's cells become the next round's
    // read side.
    medium_->end_round();
    ++stats_.rounds;

    if (active_sites > 0) {
      const std::uint64_t per_site = (executed() - before) / active_sites;
      if (per_site > kTargetEventsHi && window_ > window_min_) {
        window_ = std::max(window_min_, window_ / 2);
      } else if (per_site < kTargetEventsLo && window_ < window_max_) {
        window_ = std::min(window_max_, window_ * 2);
      }
    }
  }
  // No shard has events at or before the deadline; advance every clock to it
  // so the next run resumes from a common boundary.
  hub_.run_until(deadline);
  for (auto& s : sites_) s->run_until(deadline);
}

std::uint64_t ShardedEngine::executed() const {
  std::uint64_t n = hub_.executed();
  for (const auto& s : sites_) n += s->executed();
  return n;
}

}  // namespace otpdb
