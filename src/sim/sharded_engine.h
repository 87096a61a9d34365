// Site-sharded discrete-event engine with per-edge channel clocks.
//
// The classic driver runs an entire cluster through one Simulator queue.
// This engine instead gives each site a private Simulator (shard) and the
// network model another (the hub), and advances time in rounds of
// [hub phase -> site phase -> staging flip]. Sites only interact through a
// network whose every delivery is delayed by at least a per-edge lookahead
// floor, and the engine exploits that floor conservatively
// (Chandy/Misra/Bryant style). Everything runs on the calling thread: the
// site phase runs the sites one after another in site order.
//
// Only a switched medium (per-sender links, per-edge jitter streams: the
// metro, wan and geo-3dc topology profiles) can drive it: there a send
// depends only on sender-local state. A shared bus serializes every frame
// through one global clock and leaves no lookahead gap to exploit, so a
// shared-bus cluster always runs the classic loop (core/cluster.h).
//
// Channel clocks: each site advances independently to its own bound
//     b_s = min over shards r of (EOT_r + dist(r -> s)),
// with EOT_r = max(clock_r, next_event_time_r) the earliest time r could
// still execute (idle shards do not constrain anyone), and dist the
// SHORTEST-PATH closure of the per-edge lookahead graph - not the raw edge: a
// chain r -> q -> s of in-phase reactions is bounded below by the sum of edge
// lookaheads, and dist(s, s) (the cheapest round trip via a peer) caps how
// far s may outrun its own sends' echoes. The naive single-edge bound is
// unsound: with every peer idle it lets a site run arbitrarily far ahead,
// wake a neighbor, and receive the reply in its own past. Sends are processed
// inline on the *sending* shard; cross-site deliveries land in per-edge
// staging cells, double-buffered by round parity, and are drained into the
// receiver's queue at the start of the receiver's next site phase. The
// double buffer thus decides which round a cross-site delivery enters the
// receiver's queue in, and so how it is ordered against same-instant events
// there. On topologies with heterogeneous lookahead (wan, geo-3dc) nearby
// sites synchronize on their short edges while distant ones coast.
//
// The hub shard never receives messages; it only runs control events (chaos
// injection, Cluster::sim() submissions). Its earliest pending event still
// bounds every site (control events may mutate network-wide state), so site
// clocks never run more than one lookahead past an unexecuted control event.
//
// Window autotuning: the per-round advance of a site that has work is capped
// at W, adjusted each round from observed events per active shard with a
// hysteresis band of 16-256 events - halved above the band, doubled below
// it, clamped to [min edge lookahead, max(64 x min, max edge lookahead)],
// starting at 4 x min.
//
// Determinism: each shard fires its events in the local (timestamp,
// schedule-order) rule of the plain Simulator, and staged deliveries enter a
// receiver's queue in a canonical (sender, staging) order. On fault-free runs
// the result is bit-identical to the classic loop - histories, stores,
// counters and event counts; tests/parallel_parity_test.cc pins that on every
// switched profile and workload mix. Crash, partition and chaos-block
// transitions are hub control events, so they take effect at round
// boundaries (net/network.h): such runs are deterministic and repeat bit for
// bit, but differ slightly from the classic loop's.
//
// The engine stays because the benchmark's rmw-wan workload selects it
// (ParallelismConfig::force_sharded) and reports its EngineStats.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace otpdb {

using SiteId32 = std::uint32_t;  // mirrors net/message.h SiteId without the include

/// The switched network model as the engine sees it: it declares its
/// per-edge lookahead structure and owns the cross-shard staging cells.
class SharedMedium {
 public:
  virtual ~SharedMedium() = default;

  /// True when sends depend only on sender-local state (per-sender links and
  /// per-edge rng streams); the engine refuses any other medium.
  virtual bool switched() const = 0;

  /// Lower bound on (delivery time - send time) on the edge from -> to; must
  /// be >= 1ns.
  virtual SimTime lookahead(SiteId32 from, SiteId32 to) const = 0;

  /// Site-phase entry: drain the site's staged per-edge cells into its queue
  /// in canonical sender order.
  virtual void begin_site_window(SiteId32 site, Simulator& shard) = 0;

  /// Earliest staged-but-undrained delivery for `site` (kSimTimeMax if none):
  /// a message sitting in a staging cell is pending work the receiver's EOT
  /// must account for. Called by the coordinator between phases.
  virtual SimTime earliest_staged(SiteId32 site) = 0;

  /// End-of-round notification: flip staging parity so cells written this
  /// round become next round's read side.
  virtual void end_round() = 0;
};

/// Synchronization counters.
struct EngineStats {
  /// Rounds executed: each is one hub phase and one pass over the sites.
  std::uint64_t rounds = 0;
  /// (site, round) pairs that had events to run. rounds * site_count -
  /// site_activations site phases had nothing to do.
  std::uint64_t site_activations = 0;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(std::size_t n_sites);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Must be called once before run_until; caches the medium's lookahead
  /// structure. The medium must be switched.
  void attach_medium(SharedMedium* medium);

  Simulator& hub() { return hub_; }
  Simulator& site(SiteId32 s) { return *sites_[s]; }
  std::size_t site_count() const { return sites_.size(); }
  /// The shard whose events are running, or nullptr outside a phase. The
  /// network model reads it to timestamp sends with the sending shard's clock
  /// (control events run on the hub clock, site events on their site's).
  Simulator* active_shard() const { return active_; }

  /// Hub time == the last deadline reached (all shards agree on it between
  /// runs; within a run, shard clocks diverge by design).
  SimTime now() const { return hub_.now(); }

  /// Runs all shards through rounds until every event with time <= deadline
  /// (on any shard) has fired; afterwards every shard's clock is deadline.
  void run_until(SimTime deadline);

  /// Total events executed across all shards (bench counters).
  std::uint64_t executed() const;

  const EngineStats& stats() const { return stats_; }

 private:
  Simulator hub_;
  std::vector<std::unique_ptr<Simulator>> sites_;
  SharedMedium* medium_ = nullptr;

  // Shortest-path closure [from * n + to] of the lookahead graph
  // (dist_[s * n + s] = cheapest round trip via a peer), the hub's shortest
  // distance into each site, and the autotuner's cap and its range.
  std::vector<SimTime> dist_;
  std::vector<SimTime> hub_dist_;
  SimTime window_ = 0;
  SimTime window_min_ = 0;
  SimTime window_max_ = 0;

  EngineStats stats_;

  Simulator* active_ = nullptr;
  // Per-site run bounds of the current round.
  std::vector<SimTime> bounds_;
  // Scratch for the round computation (EOT per shard).
  std::vector<SimTime> eot_;
};

}  // namespace otpdb
