#include "db/versioned_store.h"

#include <algorithm>

#include "util/assert.h"

namespace otpdb {

VersionedStore::VersionedStore(std::uint64_t dense_objects) : dense_limit_(dense_objects) {}

VersionedStore::Chain& VersionedStore::chain_slot(ObjectId obj) {
  if (obj < dense_limit_) {
    if (obj >= dense_chains_.size()) dense_chains_.resize(static_cast<std::size_t>(obj) + 1);
    return dense_chains_[obj];
  }
  return sparse_chains_[obj];
}

void VersionedStore::load(ObjectId obj, Value value) {
  Chain& chain = chain_slot(obj);
  OTPDB_CHECK_MSG(chain.empty(), "load() must precede all writes");
  chain.push_back(Version{0, std::move(value)});
  ++live_objects_;
}

std::size_t VersionedStore::dead_prefix(std::span<const Version> chain, TOIndex floor) {
  // Chains are ascending by index; `newer` is the first version a snapshot
  // at `floor` cannot see, so the one before it is what that snapshot reads.
  const auto newer = std::upper_bound(chain.begin(), chain.end(), floor,
                                      [](TOIndex f, const Version& v) { return f < v.index; });
  return newer == chain.begin() ? 0 : static_cast<std::size_t>(newer - chain.begin()) - 1;
}

const Value* VersionedStore::read_snapshot_ptr(ObjectId obj, TOIndex max_index) const {
  const Chain* chain = chain_of(obj);
  if (chain == nullptr || chain->empty()) return nullptr;
  const Version& v = (*chain)[dead_prefix(*chain, max_index)];
  return v.index <= max_index ? &v.value : nullptr;  // else born after the snapshot
}

const Value* VersionedStore::read_for_txn_ptr(TxnId txn, ObjectId obj) const {
  if (txn < provisional_.size()) {
    const auto& entries = provisional_[txn].entries;
    for (const auto& [o, v] : entries) {
      if (o == obj) return &v;
    }
  }
  return read_latest_ptr(obj);
}

void VersionedStore::write(TxnId txn, ObjectId obj, Value value) {
  OTPDB_CHECK(txn != kInvalidTxnId);
  if (txn >= provisional_.size()) provisional_.resize(txn + 1);
  WriteSet& ws = provisional_[txn];
  // Last write per object wins; reverse linear scan (freshest entries first,
  // and write-sets are a handful of entries by design).
  for (auto it = ws.entries.rbegin(); it != ws.entries.rend(); ++it) {
    if (it->first == obj) {
      it->second = std::move(value);
      return;
    }
  }
  ws.entries.emplace_back(obj, std::move(value));
  ws.sorted = false;
}

void VersionedStore::WriteSet::ensure_sorted() {
  if (sorted) return;
  std::sort(entries.begin(), entries.end(),
            [](const WriteEntry& a, const WriteEntry& b) { return a.first < b.first; });
  sorted = true;
}

void VersionedStore::commit(TxnId txn, TOIndex index, TOIndex horizon) {
  OTPDB_CHECK(index > 0);
  if (txn >= provisional_.size()) return;  // read-only or write-free transaction
  WriteSet& ws = provisional_[txn];
  ws.ensure_sorted();  // deterministic per-object commit order across sites
  for (auto& [obj, value] : ws.entries) {
    Chain& chain = chain_slot(obj);
    OTPDB_CHECK_MSG(chain.empty() || chain.back().index < index,
                    "commit indices must ascend per object");
    if (chain.empty()) ++live_objects_;
    chain.push_back(Version{index, std::move(value)});
    // Keep what snapshots from horizon - 1 on can read: the newest version
    // with index < horizon plus everything newer.
    if (horizon > 0) {
      const std::size_t dead = dead_prefix(chain, horizon - 1);
      chain.erase(chain.begin(), chain.begin() + static_cast<std::ptrdiff_t>(dead));
    }
  }
  ws.entries.clear();  // keeps capacity: the TxnId slot is recycled
  ws.sorted = false;
}

void VersionedStore::abort(TxnId txn) {
  if (txn >= provisional_.size()) return;
  provisional_[txn].entries.clear();
  provisional_[txn].sorted = false;
}

void VersionedStore::clear_provisional() {
  for (WriteSet& ws : provisional_) {
    ws.entries.clear();
    ws.sorted = false;
  }
}

void VersionedStore::install_version(ObjectId obj, TOIndex index, Value value) {
  Chain& chain = chain_slot(obj);
  if (!chain.empty() && chain.back().index >= index) return;  // already installed
  if (chain.empty()) ++live_objects_;
  chain.push_back(Version{index, std::move(value)});
}

void VersionedStore::for_each_at(TOIndex floor,
                                 const std::function<void(ObjectId, const Version&)>& fn) const {
  const auto visit = [&](ObjectId obj, const Chain& chain) {
    const Version& v = chain[dead_prefix(chain, floor)];
    if (v.index <= floor) fn(obj, v);  // else born after the floor
  };
  for (ObjectId obj = 0; obj < dense_chains_.size(); ++obj) {
    if (!dense_chains_[obj].empty()) visit(obj, dense_chains_[obj]);
  }
  // Canonical ascending-ObjectId traversal of the sparse tail. This feeds
  // checkpoint serialization (DurableStore::do_checkpoint), so hash-order
  // emission would make checkpoint bytes a function of unordered_map
  // internals rather than of committed state. Called at checkpoint/digest
  // cadence, so the sort is off the hot path.
  std::vector<ObjectId> sparse_ids;
  sparse_ids.reserve(sparse_chains_.size());
  // DETLINT(order-insensitive): keys are collected then sorted; callbacks
  // only fire in the sorted pass below.
  for (const auto& [obj, chain] : sparse_chains_) {
    if (!chain.empty()) sparse_ids.push_back(obj);
  }
  std::sort(sparse_ids.begin(), sparse_ids.end());
  for (ObjectId obj : sparse_ids) visit(obj, sparse_chains_.at(obj));
}

void VersionedStore::reset_in_place() {
  for (Chain& chain : dense_chains_) chain.clear();
  sparse_chains_.clear();
  live_objects_ = 0;
  clear_provisional();
}

std::span<const VersionedStore::WriteEntry> VersionedStore::provisional_writes(TxnId txn) {
  if (txn >= provisional_.size()) return {};
  WriteSet& ws = provisional_[txn];
  ws.ensure_sorted();
  return ws.entries;
}

std::size_t VersionedStore::total_versions() const {
  std::size_t n = 0;
  for (const auto& chain : dense_chains_) n += chain.size();
  // DETLINT(order-insensitive): commutative sum over all chains; no digest,
  // send, or cross-site-compared stat sees the visitation order.
  for (const auto& [obj, chain] : sparse_chains_) n += chain.size();
  return n;
}

}  // namespace otpdb
