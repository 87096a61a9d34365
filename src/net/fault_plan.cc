#include "net/fault_plan.h"

#include <algorithm>

#include "util/assert.h"

namespace otpdb {

bool FaultPlan::has(FaultKind kind) const {
  return std::any_of(clauses.begin(), clauses.end(),
                     [kind](const FaultClause& c) { return c.kind == kind; });
}

FaultClause FaultPlan::duplicate(double p, SimTime extra_min, SimTime extra_max, SimTime start,
                                 SimTime end) {
  FaultClause c;
  c.kind = FaultKind::duplicate;
  c.probability = p;
  c.delay_min = extra_min;
  c.delay_max = extra_max;
  c.start = start;
  c.end = end;
  return c;
}

FaultClause FaultPlan::reorder(double p, SimTime delay_min, SimTime delay_max, SimTime start,
                               SimTime end) {
  FaultClause c;
  c.kind = FaultKind::reorder;
  c.probability = p;
  c.delay_min = delay_min;
  c.delay_max = delay_max;
  c.start = start;
  c.end = end;
  return c;
}

FaultClause FaultPlan::one_way(std::vector<SiteId> from, std::vector<SiteId> to, SimTime start,
                               SimTime end) {
  FaultClause c;
  c.kind = FaultKind::one_way_partition;
  c.from = std::move(from);
  c.to = std::move(to);
  c.start = start;
  c.end = end;
  return c;
}

FaultClause FaultPlan::flap(std::vector<SiteId> from, std::vector<SiteId> to, SimTime period,
                            double duty_down, SimTime start, SimTime end) {
  FaultClause c;
  c.kind = FaultKind::flap;
  c.from = std::move(from);
  c.to = std::move(to);
  c.period = period;
  c.duty_down = duty_down;
  c.start = start;
  c.end = end;
  return c;
}

FaultClause FaultPlan::gray(std::vector<SiteId> from, std::vector<SiteId> to, SimTime delay_min,
                            SimTime delay_max, SimTime start, SimTime end) {
  FaultClause c;
  c.kind = FaultKind::gray_link;
  c.from = std::move(from);
  c.to = std::move(to);
  c.delay_min = delay_min;
  c.delay_max = delay_max;
  c.start = start;
  c.end = end;
  return c;
}

ChaosRuntime::ChaosRuntime(FaultPlan plan, std::size_t n_sites)
    : plan_(std::move(plan)), n_(n_sites) {
  const std::size_t k = plan_.clauses.size();
  from_scope_.assign(k * n_, 0);
  to_scope_.assign(k * n_, 0);
  for (std::size_t c = 0; c < k; ++c) {
    const FaultClause& clause = plan_.clauses[c];
    OTPDB_CHECK_MSG(clause.end > clause.start, "fault clause with empty [start, end) window");
    if (clause.from.empty()) {
      std::fill_n(from_scope_.begin() + static_cast<std::ptrdiff_t>(c * n_), n_, 1);
    } else {
      for (SiteId s : clause.from) {
        OTPDB_CHECK(s < n_);
        from_scope_[c * n_ + s] = 1;
      }
    }
    if (clause.to.empty()) {
      std::fill_n(to_scope_.begin() + static_cast<std::ptrdiff_t>(c * n_), n_, 1);
    } else {
      for (SiteId s : clause.to) {
        OTPDB_CHECK(s < n_);
        to_scope_[c * n_ + s] = 1;
      }
    }
    if (clause.kind == FaultKind::one_way_partition || clause.kind == FaultKind::flap) {
      has_blocking_ = true;
      if (clause.kind == FaultKind::flap) {
        OTPDB_CHECK_MSG(clause.period > 0, "flap clause needs a positive period");
        OTPDB_CHECK(clause.duty_down > 0.0 && clause.duty_down < 1.0);
      }
    }
  }
  if (has_blocking_) blocked_.assign(n_ * n_, 0);
}

ChaosRuntime::Perturbation ChaosRuntime::perturb(SiteId from, SiteId to, SimTime at, Rng& rng,
                                                 ChaosStats& stats) const {
  Perturbation p;
  for (std::size_t c = 0; c < plan_.clauses.size(); ++c) {
    const FaultClause& clause = plan_.clauses[c];
    if (at < clause.start || at >= clause.end) continue;
    if (!in_scope(c, from, to)) continue;
    const SimTime span = clause.delay_max > clause.delay_min ? clause.delay_max - clause.delay_min : 0;
    switch (clause.kind) {
      case FaultKind::duplicate:
        if (rng.bernoulli(clause.probability)) {
          p.duplicate = true;
          p.duplicate_extra +=
              clause.delay_min + (span ? rng.uniform_int(0, span - 1) : 0);
          ++stats.duplicates_injected;
        }
        break;
      case FaultKind::reorder:
        if (rng.bernoulli(clause.probability)) {
          p.extra += clause.delay_min + (span ? rng.uniform_int(0, span - 1) : 0);
          ++stats.reorders_injected;
        }
        break;
      case FaultKind::gray_link:
        p.extra += clause.delay_min + (span ? rng.uniform_int(0, span - 1) : 0);
        ++stats.gray_delays;
        break;
      case FaultKind::one_way_partition:
      case FaultKind::flap:
        break;  // blocking clauses act at delivery time via blocked()
    }
  }
  return p;
}

bool ChaosRuntime::clause_down(const FaultClause& c, SimTime now) {
  if (now < c.start || now >= c.end) return false;
  if (c.kind == FaultKind::one_way_partition) return true;
  const SimTime phase = (now - c.start) % c.period;
  return phase < static_cast<SimTime>(static_cast<double>(c.period) * c.duty_down);
}

void ChaosRuntime::recompute(SimTime now) {
  if (!has_blocking_) return;
  std::fill(blocked_.begin(), blocked_.end(), 0);
  for (std::size_t c = 0; c < plan_.clauses.size(); ++c) {
    const FaultClause& clause = plan_.clauses[c];
    if (clause.kind != FaultKind::one_way_partition && clause.kind != FaultKind::flap) continue;
    if (!clause_down(clause, now)) continue;
    for (SiteId from = 0; from < n_; ++from) {
      if (!from_scope_[c * n_ + from]) continue;
      for (SiteId to = 0; to < n_; ++to) {
        if (to == from || !to_scope_[c * n_ + to]) continue;
        blocked_[from * n_ + to] = 1;
      }
    }
  }
}

void ChaosRuntime::schedule_flap_toggle(Simulator& hub, std::size_t clause, SimTime at) {
  if (at >= plan_.clauses[clause].end) return;  // the clause-end event closes it out
  hub.schedule_at(at, [this, &hub, clause] {
    const FaultClause& c = plan_.clauses[clause];
    ++stats_->flap_transitions;
    recompute(hub.now());
    on_transition_();
    // Self-reschedule the next edge of the duty cycle.
    const SimTime down_span = static_cast<SimTime>(static_cast<double>(c.period) * c.duty_down);
    const SimTime phase = (hub.now() - c.start) % c.period;
    const SimTime cycle_start = hub.now() - phase;
    const SimTime next = phase < down_span ? cycle_start + down_span : cycle_start + c.period;
    schedule_flap_toggle(hub, clause, next);
  });
}

void ChaosRuntime::arm(Simulator& hub, std::function<void()> on_transition, ChaosStats& stats) {
  on_transition_ = std::move(on_transition);
  stats_ = &stats;
  if (!has_blocking_) return;
  recompute(hub.now());
  auto transition = [this, &hub] {
    recompute(hub.now());
    on_transition_();
  };
  for (std::size_t c = 0; c < plan_.clauses.size(); ++c) {
    const FaultClause& clause = plan_.clauses[c];
    switch (clause.kind) {
      case FaultKind::one_way_partition:
        if (clause.start > hub.now()) hub.schedule_at(clause.start, transition);
        if (clause.end < kSimTimeMax) hub.schedule_at(clause.end, transition);
        break;
      case FaultKind::flap:
        schedule_flap_toggle(hub, c, std::max(clause.start, hub.now()));
        if (clause.end < kSimTimeMax) hub.schedule_at(clause.end, transition);
        break;
      default:
        break;
    }
  }
}

bool parse_chaos_profile(std::string_view name, std::size_t n_sites, SimTime duration,
                         ChaosProfile& out) {
  out = ChaosProfile{};
  std::vector<SiteId> all;
  for (SiteId s = 0; s < n_sites; ++s) all.push_back(s);
  const SiteId last = n_sites ? static_cast<SiteId>(n_sites - 1) : 0;
  if (name == "dup-heavy") {
    // Aggressive at-least-once delivery: 20% of frames arrive twice, plus
    // mild reordering - stresses transport dedup and abcast idempotence.
    out.net.plan.add(FaultPlan::duplicate(0.20, 0, 2 * kMillisecond))
        .add(FaultPlan::reorder(0.05, kMillisecond, 5 * kMillisecond));
    return true;
  }
  if (name == "gray-wan") {
    // One site's inbound links turn gray mid-run (slow-but-alive, delays on
    // the order of the failure-detector timeout), plus a flapping one-way
    // edge - the false-suspicion churn scenario.
    out.net.plan
        .add(FaultPlan::gray(all, {last}, 40 * kMillisecond, 160 * kMillisecond, duration / 4,
                             (3 * duration) / 4))
        .add(FaultPlan::flap({0}, {last}, 200 * kMillisecond, 0.5, duration / 4,
                             (3 * duration) / 4));
    return true;
  }
  if (name == "asym-flap") {
    // Asymmetric connectivity: site 0 cannot reach the last site for the
    // middle half of the run, while a second edge flaps.
    out.net.plan
        .add(FaultPlan::one_way({0}, {last}, duration / 4, (3 * duration) / 4))
        .add(FaultPlan::flap({last}, {0}, 150 * kMillisecond, 0.4, duration / 2,
                             (3 * duration) / 4))
        .add(FaultPlan::duplicate(0.05, 0, kMillisecond));
    return true;
  }
  if (name == "flaky-disk") {
    // Storage-side chaos: the caller arms the I/O fault injector; keep a
    // light duplication load on the network so both planes run together.
    out.flaky_disk = true;
    out.net.plan.add(FaultPlan::duplicate(0.05, 0, kMillisecond));
    return true;
  }
  return false;
}

const char* chaos_profile_list() { return "dup-heavy, gray-wan, asym-flap, flaky-disk"; }

}  // namespace otpdb
