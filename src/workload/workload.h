// Workload generation: client arrival processes, conflict-class selection,
// stored-procedure mixes, snapshot-query mixes and the clients' retry loop.
// Drives any Cluster deterministically from a seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {

struct WorkloadConfig {
  /// Client update-transaction arrival rate per site (per simulated second).
  double updates_per_second_per_site = 100.0;
  /// Poisson arrivals (exponential gaps) or a fixed submission interval.
  bool poisson_arrivals = true;

  /// Zipf skew of conflict-class selection (0 = uniform). Higher skew means
  /// more transactions in the same class, i.e. higher conflict rates.
  double class_skew_theta = 0.0;

  /// Fraction of update transactions that span several conflict classes
  /// (cross-partition commits; requires an engine with submit_update_multi
  /// support - OTP or conservative). 0 reproduces the paper's base model.
  double cross_class_fraction = 0.0;
  /// Classes a cross-class update covers (clamped to the class count). The
  /// first class is drawn with class_skew_theta; the rest are the following
  /// consecutive classes (mod class count).
  std::size_t cross_class_span = 2;

  /// Stored-procedure execution cost: exponential with this mean (or constant
  /// when `exponential_exec` is false).
  SimTime mean_exec_time = 4 * kMillisecond;
  bool exponential_exec = true;

  /// Objects read-modify-written per transaction.
  std::size_t ops_per_txn = 4;

  /// Fraction of client requests that are read-only snapshot queries.
  double query_fraction = 0.0;
  /// Conflict classes a query spans and objects it reads per class.
  std::size_t query_classes = 2;
  std::size_t query_reads_per_class = 4;
  SimTime mean_query_exec_time = 8 * kMillisecond;

  /// Length of the submission window (simulated time).
  SimTime duration = 2 * kSecond;

  // --- Overload plane (all off by default: identical rng streams and
  // submissions to the pre-overload driver) ---

  /// Deadline budget per update (0 = none). Each update carries an absolute
  /// deadline of first-submission time + this budget; retries keep the
  /// original deadline, so backing off consumes the budget.
  SimTime deadline_budget = 0;
  /// Client retries after a shed/backpressure refusal (0 = fire-and-forget),
  /// with RetryingClient's deterministic backoff.
  std::size_t max_retries = 0;
};

/// A generated update held by a client across retry attempts. Arguments are
/// drawn once; every attempt submits the same transaction with the same
/// (original) deadline.
struct PendingUpdate {
  bool cross = false;
  ProcId proc = 0;
  ClassId klass = 0;
  std::vector<ClassId> classes;  // cross-class only
  TxnArgs args;
  SimTime exec_duration = 0;
  SimTime deadline = 0;  // absolute; 0 = none
  std::size_t attempts = 0;
};

/// What one site's client did about refusals.
struct RetryCounters {
  std::uint64_t retries = 0;            ///< re-submissions after shed/backpressure
  std::uint64_t gave_up = 0;            ///< updates abandoned after max_retries
  std::uint64_t expired_presubmit = 0;  ///< deadline passed before admission
};

/// The client retry loop shared by WorkloadDriver and tpcc::TpccDriver. A
/// generated update is submitted at its site; after a shed or backpressure
/// refusal it is resubmitted, unchanged and with its original deadline, after
/// a deterministic exponential backoff:
///   delay = min(64 ms, 2 ms << attempt) + uniform jitter in [0, 1 ms].
/// The jitter is drawn from the site's rng only on a refusal, so runs that
/// never shed draw the same streams as fire-and-forget clients.
class RetryingClient {
 public:
  /// `site_rngs` are the driver's per-site streams (the jitter draws from
  /// them); `max_retries` = 0 gives up at the first refusal.
  RetryingClient(Cluster& cluster, std::vector<Rng>& site_rngs, std::size_t max_retries)
      : cluster_(cluster),
        site_rngs_(site_rngs),
        max_retries_(max_retries),
        counters_(cluster.site_count()) {}

  /// Submits `pending` at `site`, on that site's shard; retries are
  /// scheduled there too, so all state it touches stays shard-confined.
  void submit(SiteId site, PendingUpdate pending);

  const RetryCounters& counters(SiteId site) const { return counters_[site]; }

 private:
  Cluster& cluster_;
  std::vector<Rng>& site_rngs_;
  std::size_t max_retries_;
  std::vector<RetryCounters> counters_;  // per site
};

/// Registers the standard read-modify-write stored procedure used by the
/// generated workloads: args.ints = [delta, offset_1, ..., offset_k]; each
/// referenced object of the transaction's class gets value += delta.
/// Idempotent per registry (call once).
ProcId register_rmw_procedure(ProcedureRegistry& registry, const PartitionCatalog& catalog);

/// Cross-class variant for multi-class transactions: args.ints =
/// [delta, object_1, ..., object_k] with *absolute* object ids (the covered
/// class set is carried by the submission, so offsets cannot be resolved
/// against a single conflict_class()); each referenced object gets
/// value += delta. The ids must lie inside the transaction's class set -
/// TxnContext aborts the run otherwise.
ProcId register_rmw_cross_procedure(ProcedureRegistry& registry);

/// Per-site client load generator.
class WorkloadDriver {
 public:
  WorkloadDriver(Cluster& cluster, WorkloadConfig config, std::uint64_t seed);

  /// Registers the rmw procedure, loads initial object values (0) lazily via
  /// store defaults, and schedules the per-site submission streams. Each
  /// site's stream runs on its own shard (Cluster::site_sim), so generation
  /// parallelizes with the sharded engine; all per-site state (rng, counters)
  /// is shard-confined.
  void start();

  std::uint64_t updates_submitted() const { return sum(updates_submitted_); }
  std::uint64_t cross_class_submitted() const { return sum(cross_class_submitted_); }
  std::uint64_t queries_submitted() const { return sum(queries_submitted_); }
  /// Re-submissions after a shed/backpressure refusal.
  std::uint64_t retries() const { return sum(&RetryCounters::retries); }
  /// Updates abandoned after exhausting max_retries.
  std::uint64_t gave_up() const { return sum(&RetryCounters::gave_up); }
  /// Updates whose deadline passed before an attempt was admitted.
  std::uint64_t expired_presubmit() const { return sum(&RetryCounters::expired_presubmit); }
  ProcId rmw_proc() const { return rmw_proc_; }
  ProcId rmw_cross_proc() const { return rmw_cross_proc_; }

 private:
  void schedule_next(SiteId site, SimTime horizon);
  void submit_one(SiteId site);
  void submit_cross_class(SiteId site, Rng& rng);
  SimTime next_gap(Rng& rng) const;
  static std::uint64_t sum(const std::vector<std::uint64_t>& per_site) {
    std::uint64_t n = 0;
    for (std::uint64_t v : per_site) n += v;
    return n;
  }
  std::uint64_t sum(std::uint64_t RetryCounters::*counter) const {
    std::uint64_t n = 0;
    for (SiteId s = 0; s < cluster_.site_count(); ++s) n += client_.counters(s).*counter;
    return n;
  }

  Cluster& cluster_;
  WorkloadConfig config_;
  std::vector<Rng> site_rngs_;
  RetryingClient client_;  // after site_rngs_, which it draws jitter from
  ProcId rmw_proc_ = 0;
  ProcId rmw_cross_proc_ = 0;
  std::vector<std::uint64_t> updates_submitted_;      // per site
  std::vector<std::uint64_t> cross_class_submitted_;  // per site
  std::vector<std::uint64_t> queries_submitted_;      // per site
  bool started_ = false;
};

}  // namespace otpdb
