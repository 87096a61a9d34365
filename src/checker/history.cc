#include "checker/history.h"

#include <map>
#include <span>
#include <sstream>
#include <unordered_map>

#include "util/assert.h"

namespace otpdb {
namespace {

std::string txn_name(const MsgId& id) {
  std::ostringstream out;
  out << "(" << id.sender << "," << id.seq << ")";
  return out.str();
}

/// All classes a committed transaction covered. A multi-class commit carries
/// its class set; single-class records (and engines that never set the
/// vector) fall back to the primary class.
std::span<const ClassId> classes_of(const CommitRecord& r) {
  return r.classes.empty() ? std::span<const ClassId>(&r.klass, 1)
                           : std::span<const ClassId>(r.classes);
}

}  // namespace

HistoryRecorder::HistoryRecorder(Cluster& cluster) : logs_(cluster.site_count()) {
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    cluster.replica(s).set_commit_hook([this](const CommitRecord& r) { record(r); });
  }
}

HistoryRecorder::HistoryRecorder(std::size_t n_sites) : logs_(n_sites) {}

void HistoryRecorder::record(const CommitRecord& record) {
  OTPDB_CHECK(record.site < logs_.size());
  logs_[record.site].push_back(record);
}

std::size_t HistoryRecorder::total_commits() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log.size();
  return n;
}

std::string CheckResult::summary() const {
  if (violations.empty()) return "ok";
  std::ostringstream out;
  out << violations.size() << " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < 10; ++i) out << "\n  " << violations[i];
  if (violations.size() > 10) out << "\n  ...";
  return out.str();
}

CheckResult check_one_copy_serializability(const std::vector<std::vector<CommitRecord>>& logs) {
  CheckResult result;
  auto violate = [&result](const std::string& msg) { result.violations.push_back(msg); };

  // Per site and class: the committed sequence, in local commit order. A
  // multi-class transaction conflicts with every class it covers, so it
  // participates in every covered class's sequence.
  const std::size_t n_sites = logs.size();
  std::vector<std::map<ClassId, std::vector<const CommitRecord*>>> per_class(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const CommitRecord& r : logs[s]) {
      for (ClassId c : classes_of(r)) per_class[s][c].push_back(&r);
    }
  }

  // 1. Within each site and class, definitive indices must strictly ascend
  //    (conflicting transactions commit in definitive order - Lemma 4.1).
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const auto& [klass, seq] : per_class[s]) {
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i - 1]->index >= seq[i]->index) {
          std::ostringstream out;
          out << "site " << s << " class " << klass << ": commit order violates the "
              << "definitive order (" << txn_name(seq[i - 1]->txn) << " index "
              << seq[i - 1]->index << " before " << txn_name(seq[i]->txn) << " index "
              << seq[i]->index << ")";
          violate(out.str());
        }
      }
    }
  }

  // 2. Across sites: per class, common prefixes must agree transaction by
  //    transaction (same transactions, same order).
  for (std::size_t s = 1; s < n_sites; ++s) {
    for (const auto& [klass, seq] : per_class[s]) {
      auto ref_it = per_class[0].find(klass);
      if (ref_it == per_class[0].end()) continue;
      const auto& ref = ref_it->second;
      const std::size_t common = std::min(ref.size(), seq.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (ref[i]->txn != seq[i]->txn) {
          std::ostringstream out;
          out << "class " << klass << " position " << i << ": site 0 committed "
              << txn_name(ref[i]->txn) << " but site " << s << " committed "
              << txn_name(seq[i]->txn);
          violate(out.str());
          break;  // one divergence per class pair is enough evidence
        }
      }
    }
  }

  // 3. The same transaction must carry the same definitive index and identical
  //    writes at every site (agreement + deterministic execution).
  std::unordered_map<MsgId, const CommitRecord*> first_seen;
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const CommitRecord& r : logs[s]) {
      auto [it, inserted] = first_seen.try_emplace(r.txn, &r);
      if (inserted) continue;
      const CommitRecord* ref = it->second;
      if (ref->index != r.index) {
        std::ostringstream out;
        out << "txn " << txn_name(r.txn) << ": definitive index " << ref->index << " at site "
            << ref->site << " but " << r.index << " at site " << r.site;
        violate(out.str());
      }
      if (ref->writes != r.writes) {
        std::ostringstream out;
        out << "txn " << txn_name(r.txn) << ": divergent write values between sites "
            << ref->site << " and " << r.site << " (non-deterministic execution?)";
        violate(out.str());
      }
      if (ref->klass != r.klass || ref->classes != r.classes) {
        std::ostringstream out;
        out << "txn " << txn_name(r.txn) << ": divergent conflict-class sets between sites "
            << ref->site << " and " << r.site;
        violate(out.str());
      }
    }
  }

  // 4. Within each site, no transaction commits twice and indices are unique.
  for (std::size_t s = 0; s < n_sites; ++s) {
    std::unordered_map<MsgId, std::size_t> seen;
    std::map<TOIndex, const CommitRecord*> by_index;
    for (const CommitRecord& r : logs[s]) {
      if (++seen[r.txn] > 1) {
        violate("site " + std::to_string(s) + ": txn " + txn_name(r.txn) + " committed twice");
      }
      auto [it, inserted] = by_index.try_emplace(r.index, &r);
      if (!inserted) {
        violate("site " + std::to_string(s) + ": definitive index " +
                std::to_string(r.index) + " assigned to two transactions");
      }
    }
  }

  return result;
}

CheckResult check_object_level_serializability(
    const std::vector<std::vector<CommitRecord>>& logs) {
  CheckResult result;
  auto violate = [&result](const std::string& msg) { result.violations.push_back(msg); };
  const std::size_t n_sites = logs.size();

  // Per site and *object*: the sequence of committing writers, in local
  // commit order.
  std::vector<std::map<ObjectId, std::vector<const CommitRecord*>>> per_object(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const CommitRecord& r : logs[s]) {
      for (const auto& [obj, value] : r.writes) per_object[s][obj].push_back(&r);
    }
  }

  // 1. Within each site, an object's writers commit in ascending definitive
  //    order (conflicting transactions follow the total order).
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const auto& [obj, seq] : per_object[s]) {
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i - 1]->index >= seq[i]->index) {
          std::ostringstream out;
          out << "site " << s << " object " << obj << ": writers out of definitive order ("
              << txn_name(seq[i - 1]->txn) << " index " << seq[i - 1]->index << " before "
              << txn_name(seq[i]->txn) << " index " << seq[i]->index << ")";
          violate(out.str());
        }
      }
    }
  }

  // 2. Across sites: per object, common prefixes agree writer by writer.
  for (std::size_t s = 1; s < n_sites; ++s) {
    for (const auto& [obj, seq] : per_object[s]) {
      auto ref_it = per_object[0].find(obj);
      if (ref_it == per_object[0].end()) continue;
      const auto& ref = ref_it->second;
      const std::size_t common = std::min(ref.size(), seq.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (ref[i]->txn != seq[i]->txn) {
          std::ostringstream out;
          out << "object " << obj << " writer position " << i << ": site 0 committed "
              << txn_name(ref[i]->txn) << " but site " << s << " committed "
              << txn_name(seq[i]->txn);
          violate(out.str());
          break;
        }
      }
    }
  }

  // 3. Same transaction, same definitive index and identical writes at every
  //    site (agreement + deterministic execution).
  std::unordered_map<MsgId, const CommitRecord*> first_seen;
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (const CommitRecord& r : logs[s]) {
      auto [it, inserted] = first_seen.try_emplace(r.txn, &r);
      if (inserted) continue;
      const CommitRecord* ref = it->second;
      if (ref->index != r.index) {
        violate("txn " + txn_name(r.txn) + ": divergent definitive index across sites");
      }
      if (ref->writes != r.writes) {
        violate("txn " + txn_name(r.txn) + ": divergent writes across sites");
      }
    }
  }
  return result;
}

std::vector<std::vector<CommitRecord>> last_commit_per_index(
    std::vector<std::vector<CommitRecord>> logs) {
  for (auto& log : logs) {
    std::unordered_map<TOIndex, std::size_t> last;
    for (std::size_t i = 0; i < log.size(); ++i) last[log[i].index] = i;
    std::vector<CommitRecord> kept;
    kept.reserve(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (last[log[i].index] == i) kept.push_back(log[i]);
    }
    log = std::move(kept);
  }
  return logs;
}

CheckResult compare_final_states(const std::vector<const VersionedStore*>& stores,
                                 const PartitionCatalog& catalog) {
  CheckResult result;
  if (stores.size() < 2) return result;
  for (ClassId c = 0; c < catalog.class_count(); ++c) {
    for (std::uint64_t k = 0; k < catalog.objects_per_class(); ++k) {
      const ObjectId obj = catalog.object(c, k);
      const auto ref = stores[0]->read_latest(obj);
      for (std::size_t s = 1; s < stores.size(); ++s) {
        const auto v = stores[s]->read_latest(obj);
        if (ref != v) {
          std::ostringstream out;
          out << "object " << obj << " (class " << c << "): site 0 has "
              << (ref ? to_display_string(*ref) : "<none>") << ", site " << s << " has "
              << (v ? to_display_string(*v) : "<none>");
          result.violations.push_back(out.str());
        }
      }
    }
  }
  return result;
}

}  // namespace otpdb
