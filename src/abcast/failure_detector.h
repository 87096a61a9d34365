// Heartbeat-based failure detector (eventually-strong flavour).
//
// Every site multicasts a heartbeat each `interval`; a peer silent for longer
// than its current timeout becomes suspected. Suspicion is revised when a
// heartbeat arrives again (crash-recovery model: sites always recover). In the
// simulated network message delays are eventually bounded, so the detector is
// eventually accurate - which is all the consensus layer needs for liveness.
//
// Hysteresis against gray links (slow-but-alive peers, see net/fault_plan.h):
// every restore is evidence the suspicion was premature, so the per-peer
// timeout backs off multiplicatively (capped); sustained timely heartbeats
// decay it back toward the base. A peer that keeps limping stops churning
// suspect/restore cycles after a few rounds, while first-suspicion latency
// for genuinely crashed peers is unchanged - backoff only ever starts after
// a restore, which a crashed peer never produces.
//
// Stable floors ride on the heartbeats: each one carries the sender's
// stable floor (the highest definitive index it will never need replayed,
// read from the floor source at send time), and the detector keeps the
// highest floor heard from every site. Their minimum, stable_floor(), is
// the cluster-wide floor below which the ordering layer may drop history.
// A crashed site's floor stays at its last report, so it pins the minimum
// until it comes back.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/recycling.h"
#include "util/types.h"

namespace otpdb {

struct FailureDetectorConfig {
  SimTime interval = 25 * kMillisecond;
  SimTime suspect_timeout = 120 * kMillisecond;
  /// Per-peer timeout multiplier applied on every restore (<= 1 disables the
  /// hysteresis and restores the pre-chaos fixed-timeout behavior). The
  /// backed-off timeout is capped at 8 x `suspect_timeout`.
  double timeout_backoff = 2.0;
};

/// Churn counters; merge()-able across a cluster's detectors.
struct FailureDetectorStats {
  std::uint64_t suspicions = 0;
  std::uint64_t restores = 0;

  void merge(const FailureDetectorStats& other) {
    suspicions += other.suspicions;
    restores += other.restores;
  }
};

class FailureDetector {
 public:
  FailureDetector(Simulator& sim, Network& net, SiteId self, FailureDetectorConfig config);
  ~FailureDetector();

  /// Begins emitting heartbeats and monitoring peers.
  void start();

  /// True if `site` is currently suspected of having crashed.
  bool suspects(SiteId site) const { return suspected_[site]; }

  /// Number of currently unsuspected sites (self included).
  std::size_t alive_count() const;

  /// Optional notifications.
  void set_on_suspect(std::function<void(SiteId)> fn) { on_suspect_ = std::move(fn); }
  void set_on_restore(std::function<void(SiteId)> fn) { on_restore_ = std::move(fn); }

  /// Where this site's own stable floor is read before every heartbeat.
  /// Without a source the site reports 0 and nothing is ever trimmed.
  void set_floor_source(std::function<TOIndex()> fn) { floor_source_ = std::move(fn); }
  /// Minimum over all sites (self included) of the highest stable floor
  /// heard from each: every site has committed every index at or below it.
  TOIndex stable_floor() const { return stable_floor_; }

  /// Lifetime suspicion churn at this detector.
  const FailureDetectorStats& stats() const { return stats_; }
  /// The current (possibly backed-off) suspect timeout for `site`.
  SimTime current_timeout(SiteId site) const { return timeout_[site]; }

 private:
  /// A heartbeat's payload (defined in failure_detector.cc).
  struct HeartbeatPayload;

  void tick();
  void on_heartbeat(const Message& msg);
  /// Raises `site`'s known floor to `floor` and refreshes the minimum.
  void note_floor(SiteId site, TOIndex floor);

  Simulator& sim_;
  Network& net_;
  SiteId self_;
  FailureDetectorConfig config_;
  std::vector<SimTime> last_heard_;
  std::vector<SimTime> timeout_;  // per-peer adaptive suspect timeout
  std::vector<bool> suspected_;
  FailureDetectorStats stats_;
  std::function<void(SiteId)> on_suspect_;
  std::function<void(SiteId)> on_restore_;
  std::function<TOIndex()> floor_source_;
  std::vector<TOIndex> floors_;  // highest stable floor heard per site
  TOIndex stable_floor_ = 0;     // min over floors_
  BodyPool<HeartbeatPayload> heartbeats_;
  bool started_ = false;
};

}  // namespace otpdb
