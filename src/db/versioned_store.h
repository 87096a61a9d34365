// Multi-version in-memory storage engine.
//
// Each object carries a chain of committed versions stamped with the
// definitive index (TOIndex) of the creating transaction - the version
// labeling the paper's Section 5 relies on for query snapshots. Executing
// transactions write *provisional* versions visible only to themselves;
// commit(txn, index) stamps them into the committed chain, abort(txn) drops
// them (the paper's "undo using traditional recovery techniques" - provisional
// versions double as the undo log).
//
// Hot-path layout (PR 1):
//  * Transactions are named by dense per-site TxnIds (see TxnIdInterner), so
//    the provisional table is a flat vector indexed by TxnId - no hashing.
//  * A provisional write-set is a small flat vector of (object, value) pairs
//    in insertion order, deduplicated by linear scan (write-sets are almost
//    always a handful of entries) and sorted by object on first use of the
//    commit path. Retired TxnId slots keep their vector capacity, so steady
//    state runs allocation-free.
//  * Object version chains live in a dense vector directly indexed by
//    ObjectId for the catalog's contiguous id space, with a hash-map fallback
//    for sparse ids beyond it. read_latest/read_for_txn have
//    pointer-returning variants so hot readers skip the Value copy.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/value.h"
#include "util/types.h"

namespace otpdb {

class VersionedStore {
 public:
  struct Version {
    TOIndex index = 0;  // 0 = initial load
    Value value;
  };

  /// One provisional write: (object, value). Sorted by object on commit.
  using WriteEntry = std::pair<ObjectId, Value>;

  /// `dense_objects` sizes the directly-indexed chain table: ids in
  /// [0, dense_objects) get array slots, larger ids fall back to a hash map.
  /// Pass the PartitionCatalog's object_count() for an all-dense store.
  explicit VersionedStore(std::uint64_t dense_objects = kDefaultDenseObjects);

  /// Installs an initial version (index 0). Used to load the schema before the
  /// run; all sites must load identically.
  void load(ObjectId obj, Value value);

  /// Latest committed value, ignoring snapshots. nullptr if never written.
  const Value* read_latest_ptr(ObjectId obj) const {
    const Chain* chain = chain_of(obj);
    return chain && !chain->empty() ? &chain->back().value : nullptr;
  }
  std::optional<Value> read_latest(ObjectId obj) const {
    const Value* v = read_latest_ptr(obj);
    return v ? std::optional<Value>(*v) : std::nullopt;
  }

  /// Latest committed value with version index <= max_index (snapshot read).
  const Value* read_snapshot_ptr(ObjectId obj, TOIndex max_index) const;
  std::optional<Value> read_snapshot(ObjectId obj, TOIndex max_index) const {
    const Value* v = read_snapshot_ptr(obj, max_index);
    return v ? std::optional<Value>(*v) : std::nullopt;
  }

  /// Transaction-scoped read: the transaction's own provisional write if any,
  /// else the latest committed value. nullptr when neither exists.
  const Value* read_for_txn_ptr(TxnId txn, ObjectId obj) const;
  std::optional<Value> read_for_txn(TxnId txn, ObjectId obj) const {
    const Value* v = read_for_txn_ptr(txn, obj);
    return v ? std::optional<Value>(*v) : std::nullopt;
  }

  /// Provisional write by an executing transaction (last write per object
  /// wins within the transaction).
  void write(TxnId txn, ObjectId obj, Value value);

  /// Promotes the transaction's provisional writes to committed versions
  /// stamped `index`. Per-object version indices must remain ascending (the
  /// OTP engine guarantees this: commits within a class follow the definitive
  /// order and classes own disjoint objects).
  ///
  /// Garbage-collects each written chain on the way: versions no snapshot at
  /// or above `horizon - 1` can read are dropped (all versions older than
  /// the newest one with index < horizon). Engines pass
  /// QueryEngine::gc_horizon(); 0 keeps every version.
  void commit(TxnId txn, TOIndex index, TOIndex horizon = 0);

  /// Discards the transaction's provisional writes (undo).
  void abort(TxnId txn);

  /// Discards every provisional write (crash recovery: provisional versions
  /// live in volatile memory; only committed versions are durable).
  void clear_provisional();

  /// Directly installs one committed version (recovery replay: checkpoint
  /// chains and WAL commit records, applied in file order). Idempotent - a
  /// version at or below the chain head is skipped, so a WAL record that
  /// overlaps the checkpoint re-applies harmlessly.
  void install_version(ObjectId obj, TOIndex index, Value value);

  /// Visits, in ascending ObjectId order, each object's newest committed
  /// version at or below `floor` - what a snapshot at `floor` reads. Objects
  /// born after it are skipped. The durable checkpoint writer saves exactly
  /// this.
  void for_each_at(TOIndex floor,
                   const std::function<void(ObjectId, const Version&)>& fn) const;

  /// Drops all committed and provisional state, keeping allocations and -
  /// critically - the object's identity: references to this store held by
  /// replicas stay valid across a cold restart.
  void reset_in_place();

  /// The transaction's current provisional write set, sorted by object - a
  /// view into the store, valid until the next write/commit/abort of `txn`.
  /// Deterministic object order makes commit records site-comparable.
  std::span<const WriteEntry> provisional_writes(TxnId txn);

  /// Version-chain statistics (benches / GC tests).
  std::size_t object_count() const { return live_objects_; }
  std::size_t total_versions() const;

 private:
  static constexpr std::uint64_t kDefaultDenseObjects = 1 << 16;

  using Chain = std::vector<Version>;

  /// The keep-rule behind snapshot reads, commit-time GC and checkpoints: the
  /// number of leading versions of `chain` that no snapshot at or above
  /// `floor` can read. Everything from the newest version with index <=
  /// floor onwards survives (the whole chain when no version is that old).
  static std::size_t dead_prefix(std::span<const Version> chain, TOIndex floor);

  struct WriteSet {
    std::vector<WriteEntry> entries;  // unique objects, insertion order
    bool sorted = false;              // entries ascending by object

    void ensure_sorted();
  };

  const Chain* chain_of(ObjectId obj) const {
    if (obj < dense_limit_) {
      return obj < dense_chains_.size() ? &dense_chains_[obj] : nullptr;
    }
    auto it = sparse_chains_.find(obj);
    return it == sparse_chains_.end() ? nullptr : &it->second;
  }
  Chain& chain_slot(ObjectId obj);

  std::uint64_t dense_limit_;
  std::vector<Chain> dense_chains_;                    // ids < dense_limit_
  std::unordered_map<ObjectId, Chain> sparse_chains_;  // ids >= dense_limit_
  std::size_t live_objects_ = 0;                       // chains holding >= 1 version
  std::vector<WriteSet> provisional_;                  // indexed by TxnId
};

}  // namespace otpdb
