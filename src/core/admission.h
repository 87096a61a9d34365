// Per-site admission control: bounded-ingress shedding with hysteresis.
//
// Under overload the optimistic window widens (queued traffic delays
// TO-delivery behind opt-delivery), aborts climb, and goodput collapses.
// The admission controller turns that collapse into an explicit, bounded
// regime: when either pressure signal - local queue depth (transactions not
// yet committed at this site) or opt-vs-TO delivery lag at the broadcast
// layer - crosses its shed threshold, new submissions are refused with an
// explicit Shed outcome until BOTH signals fall back below their (lower)
// resume thresholds. The shed/resume split is hysteresis: a controller with
// a single threshold flaps admit/shed on every submission at the boundary,
// which turns client retry into synchronized thundering herds.
//
// Decisions are a pure function of the two signals and the controller's
// current mode, all of which are deterministic per site, so a run repeats
// bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace otpdb {

struct AdmissionConfig {
  bool enabled = false;  ///< default off: zero behavior change for old configs

  /// Shed when local queue depth (in-flight transactions) reaches this.
  std::size_t shed_depth = 512;
  /// Resume admitting only once depth is back at or below this.
  std::size_t resume_depth = 256;

  /// Shed when opt-delivered-but-not-TO-delivered lag reaches this.
  std::uint64_t shed_lag = 256;
  /// Resume admitting only once lag is back at or below this.
  std::uint64_t resume_lag = 128;
};

struct AdmissionStats {
  std::uint64_t shed_engagements = 0;  ///< admit -> shed transitions
  std::uint64_t shed_releases = 0;     ///< shed -> admit transitions
};

class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionConfig& config) : config_(config) {}

  void configure(const AdmissionConfig& config) { config_ = config; }
  const AdmissionConfig& config() const { return config_; }

  /// One admission decision. `depth` is the site's current in-flight count,
  /// `lag` the broadcast layer's opt-minus-TO delivery gap. Returns true to
  /// admit. Mode transitions (and only transitions) are counted in stats.
  bool admit(std::size_t depth, std::uint64_t lag);

  /// True while the controller is refusing submissions.
  bool shedding() const { return shedding_; }

  const AdmissionStats& stats() const { return stats_; }

  /// Crash recovery: volatile queue state is gone, so pressure is gone.
  void reset() { shedding_ = false; }

 private:
  AdmissionConfig config_;
  bool shedding_ = false;
  AdmissionStats stats_;
};

}  // namespace otpdb
