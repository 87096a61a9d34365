// Declarative chaos plane: timed, seeded fault schedules over the simulated
// network, beyond the base model's loss/hiccup/crash/symmetric-partition
// repertoire. A FaultPlan is a list of clauses, each active over a half-open
// [start, end) window of simulated time and scoped to a set of directed
// (from, to) edges:
//
//  * duplicate        - a second copy of the frame is delivered with an extra
//                       delay drawn from [delay_min, delay_max); exercises
//                       transport/abcast dedup (reliable != exactly-once).
//  * reorder          - an extra delay in [delay_min, delay_max) is added with
//                       probability p, pushing the message past later sends -
//                       bounded reordering beyond the jitter model.
//  * one_way_partition- messages from -> to are parked while the clause is
//                       active (the reverse direction flows); asymmetric
//                       links, the classic "A hears B but not vice versa".
//  * flap             - a one-way partition that toggles with period `period`
//                       and down fraction `duty_down`: down for
//                       period*duty_down, up for the rest, repeating.
//  * gray_link        - slow-but-alive: every message on the edge is delayed
//                       by a draw from [delay_min, delay_max); long enough
//                       draws provoke false failure suspicions.
//
// Determinism: per-message clauses (duplicate/reorder/gray) draw from a
// dedicated chaos rng at send-processing time - on the hub for the shared-bus
// path, on the sending shard with a per-edge chaos stream for the switched
// path - in fixed clause order, so histories are bit-for-bit identical across
// sharded thread counts. Blocking clauses (one-way/flap) mutate a blocked
// matrix only from hub control events, window-quantized exactly like
// crash/partition state (see the fault-model note in net/network.h); parked
// messages replay on release, so channels stay reliable - chaos reorders,
// duplicates, and delays, but never loses.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {

enum class FaultKind : std::uint8_t {
  duplicate,
  reorder,
  one_way_partition,
  flap,
  gray_link,
};

/// One scheduled fault. Empty `from`/`to` means "all sites"; self-edges are
/// never faulted. Active over [start, end).
struct FaultClause {
  FaultKind kind = FaultKind::duplicate;
  SimTime start = 0;
  SimTime end = kSimTimeMax;
  std::vector<SiteId> from;  // empty = every sender
  std::vector<SiteId> to;    // empty = every receiver
  /// Per-message trigger probability (duplicate/reorder). Gray links apply to
  /// every message; blocking clauses ignore it.
  double probability = 1.0;
  /// Extra-delay range for duplicate (the copy), reorder, and gray_link.
  SimTime delay_min = 0;
  SimTime delay_max = 0;
  /// Flap cycle: down for period*duty_down, then up, repeating from `start`.
  SimTime period = 100 * kMillisecond;
  double duty_down = 0.5;
};

/// A seeded, declarative schedule of fault clauses.
struct FaultPlan {
  std::vector<FaultClause> clauses;

  bool empty() const { return clauses.empty(); }
  bool has(FaultKind kind) const;
  FaultPlan& add(FaultClause clause) {
    clauses.push_back(std::move(clause));
    return *this;
  }

  // Clause builders (scoped variants take explicit edge sets).
  static FaultClause duplicate(double p, SimTime extra_min, SimTime extra_max,
                               SimTime start = 0, SimTime end = kSimTimeMax);
  static FaultClause reorder(double p, SimTime delay_min, SimTime delay_max,
                             SimTime start = 0, SimTime end = kSimTimeMax);
  static FaultClause one_way(std::vector<SiteId> from, std::vector<SiteId> to,
                            SimTime start, SimTime end);
  static FaultClause flap(std::vector<SiteId> from, std::vector<SiteId> to, SimTime period,
                          double duty_down, SimTime start = 0, SimTime end = kSimTimeMax);
  static FaultClause gray(std::vector<SiteId> from, std::vector<SiteId> to, SimTime delay_min,
                          SimTime delay_max, SimTime start = 0, SimTime end = kSimTimeMax);
};

/// Network-chaos configuration carried on ClusterConfig. Transport dedup is
/// armed whenever the plan can duplicate (the abcast layer asserts
/// at-most-once per MsgId).
struct ChaosConfig {
  FaultPlan plan;

  bool enabled() const { return !plan.empty(); }
};

/// Injection/suppression counters. Sharded mode keeps one row per shard
/// (sender rows for send-time draws, receiver rows for delivery-time checks,
/// a hub row for control events) and aggregates on read - no cross-thread
/// writes.
struct ChaosStats {
  std::uint64_t duplicates_injected = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t reorders_injected = 0;
  std::uint64_t gray_delays = 0;
  std::uint64_t deliveries_parked = 0;   // parked by a chaos block (not partition)
  std::uint64_t parked_released = 0;     // replayed after a block lifted
  std::uint64_t flap_transitions = 0;

  void merge(const ChaosStats& other) {
    duplicates_injected += other.duplicates_injected;
    duplicates_suppressed += other.duplicates_suppressed;
    reorders_injected += other.reorders_injected;
    gray_delays += other.gray_delays;
    deliveries_parked += other.deliveries_parked;
    parked_released += other.parked_released;
    flap_transitions += other.flap_transitions;
  }
};

/// Executes a FaultPlan against a cluster of n sites: evaluates per-message
/// clauses at send time and maintains the blocked-edge matrix via hub control
/// events. Owned by the Network; see Network::arm_chaos.
class ChaosRuntime {
 public:
  ChaosRuntime(FaultPlan plan, std::size_t n_sites);

  /// The per-message perturbation for one (from, to) send processed at `at`.
  /// Draws from `rng` in fixed clause order (active, in-scope clauses only),
  /// so the stream stays aligned across engine modes and thread counts.
  struct Perturbation {
    SimTime extra = 0;           // added to the original delivery's delay
    bool duplicate = false;      // schedule a second copy
    SimTime duplicate_extra = 0; // the copy's delay beyond the original's
  };
  Perturbation perturb(SiteId from, SiteId to, SimTime at, Rng& rng, ChaosStats& stats) const;

  /// True while any active blocking clause covers the directed edge.
  bool blocked(SiteId from, SiteId to) const {
    return has_blocking_ && blocked_[from * n_ + to] != 0;
  }
  bool has_blocking_clauses() const { return has_blocking_; }

  /// Schedules every blocking-clause transition (starts, ends, flap toggles)
  /// as control events on `hub`. Each transition recomputes the blocked
  /// matrix and then runs `on_transition` (the Network releases parked
  /// messages there). `stats` must outlive the runtime (the hub stats row).
  void arm(Simulator& hub, std::function<void()> on_transition, ChaosStats& stats);

 private:
  bool in_scope(std::size_t clause, SiteId from, SiteId to) const {
    return from_scope_[clause * n_ + from] && to_scope_[clause * n_ + to];
  }
  /// Whether blocking clause `c` holds the edge down at time `now`.
  static bool clause_down(const FaultClause& c, SimTime now);
  void recompute(SimTime now);
  void schedule_flap_toggle(Simulator& hub, std::size_t clause, SimTime at);

  FaultPlan plan_;
  std::size_t n_;
  bool has_blocking_ = false;
  std::vector<std::uint8_t> from_scope_;  // [clause * n + site]
  std::vector<std::uint8_t> to_scope_;
  std::vector<std::uint8_t> blocked_;     // [from * n + to]
  std::function<void()> on_transition_;
  ChaosStats* hub_stats_ = nullptr;
};

/// Named chaos profiles for the CLI and benches. `n_sites`/`duration` scale
/// the clause schedule to the run. `flaky_disk` asks the caller to also arm
/// the storage fault injector (db layer - see StorageFaults); the network
/// plan may be empty in that case.
struct ChaosProfile {
  ChaosConfig net;
  bool flaky_disk = false;
};
bool parse_chaos_profile(std::string_view name, std::size_t n_sites, SimTime duration,
                         ChaosProfile& out);
const char* chaos_profile_list();

}  // namespace otpdb
