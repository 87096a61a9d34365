// Site-sharded discrete-event engine with per-edge channel clocks.
//
// The classic driver runs an entire cluster through one Simulator queue, so
// adding sites makes runs slower even though sites only interact through a
// network whose every delivery is delayed by at least a per-edge lookahead
// floor. This engine exploits that floor conservatively (Chandy/Misra/Bryant
// style): each site owns a private Simulator (shard), the network model owns
// another (the hub), and time advances in rounds of
// [hub phase -> parallel site phase -> barrier].
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
// staging cells and are drained into the receiver's queue by the receiver's
// own worker at the start of its next phase, so the fan-out never serializes
// on one thread. On topologies with heterogeneous lookahead (wan, geo-3dc)
// nearby sites synchronize on their short edges while distant ones coast.
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
// starting at 4 x min. Event counts are thread-count independent, so the W
// trajectory is too.
//
// Determinism: each shard fires its events in the local (timestamp,
// schedule-order) rule of the plain Simulator, and every cross-shard
// insertion happens either in a serial phase or in a canonical drain order
// independent of the worker count. Hence runs are bit-for-bit identical for
// any thread count, including the degenerate single-worker sharded run - the
// parity suite (tests/parallel_parity_test.cc) asserts exactly that for every
// switched profile, under TSan.
//
// Note the global tie-break differs from the classic single-queue loop: two
// events at the same timestamp on *different* shards no longer have a global
// schedule order (that is precisely what buys the parallelism), so sharded
// histories are deterministic but not bitwise equal to single-queue
// histories. ClusterConfig keeps the classic loop as the threads=1 default.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
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

  /// Site-phase entry, on the shard's worker thread: drain the site's staged
  /// per-edge cells into its queue in canonical sender order.
  virtual void begin_site_window(SiteId32 site, Simulator& shard) = 0;

  /// Earliest staged-but-undrained delivery for `site` (kSimTimeMax if none):
  /// a message sitting in a staging cell is pending work the receiver's EOT
  /// must account for. Called by the coordinator between phases.
  virtual SimTime earliest_staged(SiteId32 site) = 0;

  /// Round barrier notification: flip staging parity so cells written this
  /// round become next round's read side.
  virtual void end_round() = 0;
};

/// The Simulator currently running on this thread, or nullptr outside a
/// shard phase. The network model reads it to timestamp sends with the
/// sending shard's clock (control events run on the hub clock, site events
/// on their site's clock).
Simulator* active_shard();
void set_active_shard(Simulator* sim);

/// Synchronization counters.
struct EngineStats {
  /// Barrier-separated rounds executed: each is one full-stop synchronization
  /// of all workers.
  std::uint64_t rounds = 0;
  /// (site, round) pairs that had events to run - the parallel work actually
  /// dispatched. rounds * site_count - site_activations phases were skipped.
  std::uint64_t site_activations = 0;
};

class ShardedEngine {
 public:
  /// `threads` worker participants (clamped to [1, n_sites]); the calling
  /// thread is one of them.
  ShardedEngine(std::size_t n_sites, unsigned threads);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Must be called once before run_until; caches the medium's lookahead
  /// structure. The medium must be switched.
  void attach_medium(SharedMedium* medium);

  Simulator& hub() { return hub_; }
  Simulator& site(SiteId32 s) { return *sites_[s]; }
  std::size_t site_count() const { return sites_.size(); }

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
  void worker_loop(unsigned worker);
  void run_owned_sites(unsigned worker);
  /// Releases the workers on the published bounds_, runs participant 0's
  /// share, and waits for everyone (the round's site phase).
  void run_site_phase();

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

  // Workers are participants 1..n_workers_-1; the coordinating thread is
  // participant 0 and runs its share of sites between releasing the workers
  // and waiting for them. Sites are owned round-robin by participant index.
  unsigned n_workers_ = 1;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> epoch_{0};   // bumped to release a site phase
  std::atomic<unsigned> arrived_{0};      // workers done with the current phase
  std::atomic<bool> stop_{false};
  // Per-site run bounds, published before the epoch bump (release order).
  std::vector<SimTime> bounds_;
  // Scratch for the round computation (EOT per shard).
  std::vector<SimTime> eot_;
};

}  // namespace otpdb
