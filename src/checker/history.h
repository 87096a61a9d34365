// Execution-history recording and 1-copy-serializability checking
// (paper Sections 2.2 and 4).
//
// The HistoryRecorder subscribes to every replica's commit hook and keeps a
// per-site log of commit records. The checker then verifies the conditions of
// Theorem 4.2: all sites commit the same update transactions, conflicting
// transactions (sharing any covered class - a multi-class commit participates
// in every class of its set) commit in the same relative order everywhere,
// that order is the definitive total order, and every transaction writes
// identical values at every site (execution determinism). Together these make the union
// of the local histories conflict-equivalent to the serial history in
// definitive order - 1-copy-serializability.
//
// The lazy-replication baseline is expected to FAIL these checks; tests use
// that to demonstrate the consistency gap the paper describes.
#pragma once

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/txn.h"
#include "db/partition.h"
#include "db/versioned_store.h"

namespace otpdb {

class HistoryRecorder {
 public:
  /// Hooks every replica of the cluster. Call before submitting work.
  explicit HistoryRecorder(Cluster& cluster);

  /// Creates an unattached recorder for `n_sites` (manual record()).
  explicit HistoryRecorder(std::size_t n_sites);

  void record(const CommitRecord& record);

  const std::vector<std::vector<CommitRecord>>& site_logs() const { return logs_; }
  std::size_t total_commits() const;

 private:
  std::vector<std::vector<CommitRecord>> logs_;
};

struct CheckResult {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Verifies 1-copy-serializability over the recorded histories (see above).
/// Sites may lag (a site's per-class log may be a prefix of another's); any
/// order disagreement on the common prefix is a violation.
CheckResult check_one_copy_serializability(const std::vector<std::vector<CommitRecord>>& logs);

/// Object-granularity variant for the fine-grained lock-table engine
/// (paper Section 6 / [13]): two transactions conflict iff their write sets
/// intersect, so the cross-site order agreement is checked per *object*
/// rather than per class; per-class commit orders may legitimately differ.
CheckResult check_object_level_serializability(
    const std::vector<std::vector<CommitRecord>>& logs);

/// Collapses each site log to the last occurrence of every definitive index.
/// A cold-restarted site re-executes and commits again what lay above its
/// durable floor, so its log repeats those indices.
std::vector<std::vector<CommitRecord>> last_commit_per_index(
    std::vector<std::vector<CommitRecord>> logs);

/// Compares the latest committed value of every catalogued object across the
/// given stores; returns one violation per differing object. After a quiesced
/// run, eager engines must produce identical states at all sites.
CheckResult compare_final_states(const std::vector<const VersionedStore*>& stores,
                                 const PartitionCatalog& catalog);

}  // namespace otpdb
