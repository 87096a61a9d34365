// Snapshot queries (paper Section 5).
//
// Queries execute locally, may touch any number of conflict classes, and need
// not pre-declare them. Each query receives a snapshot index when it starts:
// if T_i was the last TO-delivered transaction processed at the site, the
// query's index is "i.5". A read of an object in class C observes the version
// created by T_j where j = max{k <= i : T_k in C} - the youngest class-C
// version the definitive order places before the query. If that transaction
// is TO-delivered but not yet committed locally, the query waits for the
// commit and re-runs (queries are pure reads, so re-running is free of side
// effects). This yields a serialization order consistent with the definitive
// total order at every site, ruling out the Section 5 anomaly where two
// queries at different sites order the same update transactions differently.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "db/value.h"
#include "sim/simulator.h"
#include "util/types.h"

namespace otpdb {

class QueryContext;

/// A read-only query body. May read objects from any conflict class; captures
/// its own results. Must not mutate anything outside its captures.
using QueryFn = std::function<void(QueryContext&)>;

/// Completion report for a query.
struct QueryReport {
  TOIndex snapshot_index = 0;  ///< the "i" of the paper's "i.5"
  SimTime submitted_at = 0;
  SimTime completed_at = 0;
  std::uint32_t attempts = 1;  ///< 1 = never had to wait for an in-flight commit
  std::vector<std::pair<ObjectId, Value>> reads;
};

using QueryDoneFn = std::function<void(const QueryReport&)>;

namespace detail {
/// Internal control-flow signal: a snapshot version the query needs is
/// TO-delivered but not yet committed. The query runner catches it, waits for
/// the commit of `index`, and re-runs the query body.
struct SnapshotNotReady {
  TOIndex index = 0;
};
}  // namespace detail

/// Read handle bound to one snapshot index. Created by the replica.
class QueryContext {
 public:
  /// Reads `obj` at this query's snapshot. Unwritten objects read as 0.
  Value read(ObjectId obj);
  std::int64_t read_int(ObjectId obj) { return as_int(read(obj)); }

  TOIndex snapshot_index() const { return snapshot_; }
  const std::vector<std::pair<ObjectId, Value>>& reads() const { return reads_; }

 private:
  friend class QueryEngine;
  friend class LazyReplica;

  using ReadFn = std::function<Value(ObjectId, TOIndex)>;  // throws SnapshotNotReady

  /// Logs the reads into `reads`, the caller's buffer, which it clears.
  QueryContext(TOIndex snapshot, ReadFn read_fn, std::vector<std::pair<ObjectId, Value>>& reads)
      : snapshot_(snapshot), read_fn_(std::move(read_fn)), reads_(reads) {
    reads_.clear();
  }

  TOIndex snapshot_;
  ReadFn read_fn_;
  std::vector<std::pair<ObjectId, Value>>& reads_;
};

inline Value QueryContext::read(ObjectId obj) {
  Value v = read_fn_(obj, snapshot_);
  reads_.emplace_back(obj, v);
  return v;
}

}  // namespace otpdb
