// Stored procedures and their execution contexts (paper Section 2.2).
//
// All data access goes through pre-declared stored procedures; one transaction
// corresponds to one stored procedure invocation. Procedures must be
// deterministic functions of (arguments, database state) - they execute
// independently at every site and must produce identical writes everywhere.
// The TxnContext enforces the conflict-class discipline of Section 2.3: an
// update transaction may only touch objects of its declared scope - its own
// class partition (base model), the union of the partitions of a pre-declared
// class *set* (multi-class transactions, Section 6's fine-granularity
// direction), or an explicit object access set (the lock-table engine).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "db/partition.h"
#include "db/value.h"
#include "db/versioned_store.h"
#include "net/message.h"
#include "util/types.h"

namespace otpdb {

/// Arguments marshalled inside the TO-broadcast transaction request.
struct TxnArgs {
  std::vector<std::int64_t> ints;
};

/// A transaction's read log: every (object, value) it read, in read order.
using ReadLog = std::vector<std::pair<ObjectId, Value>>;

/// Execution context handed to a stored procedure. The context enforces the
/// transaction's access scope: either its conflict-class partition (the
/// paper's Section 2.3 model) or an explicitly pre-declared object set (the
/// fine-granularity model of Section 6 / the companion report [13]).
///
/// Writes go straight to the store's provisional write set, which is the
/// transaction's only write set. Reads are appended to `reads` when the
/// caller passes a log (the replicas pass their record's recycled log when a
/// commit hook wants read sets); without one nothing is logged.
class TxnContext {
 public:
  /// Class-scoped context: the transaction may touch its class's partition.
  /// `txn` is the site-local dense id the replica interned for this
  /// transaction (see TxnIdInterner).
  TxnContext(VersionedStore& store, const PartitionCatalog& catalog, TxnId txn, ClassId klass,
             const TxnArgs& args, ReadLog* reads = nullptr)
      : store_(store),
        scope_lo_(catalog.object(klass, 0)),
        scope_hi_(scope_lo_ + catalog.objects_per_class()),
        txn_(txn),
        klass_(klass),
        args_(args),
        reads_(reads) {}

  /// Class-set-scoped context: the transaction may touch the union of the
  /// partitions of `classes` (ascending, duplicate-free; must stay alive for
  /// the duration of the execution). Used for multi-class (cross-partition)
  /// update transactions.
  TxnContext(VersionedStore& store, const PartitionCatalog& catalog,
             std::span<const ClassId> classes, TxnId txn, const TxnArgs& args,
             ReadLog* reads = nullptr)
      : store_(store),
        catalog_(&catalog),
        classes_(classes),
        txn_(txn),
        klass_(classes.front()),
        args_(args),
        reads_(reads) {}

  /// Set-scoped context: the transaction may touch exactly `access_set`.
  TxnContext(VersionedStore& store, const std::vector<ObjectId>& access_set, TxnId txn,
             ClassId klass, const TxnArgs& args, ReadLog* reads = nullptr)
      : store_(store),
        access_set_(&access_set),
        txn_(txn),
        klass_(klass),
        args_(args),
        reads_(reads) {}

  /// Reads an object within this transaction's scope (own writes visible).
  /// Unwritten objects read as integer 0.
  Value read(ObjectId obj);
  std::int64_t read_int(ObjectId obj);

  /// Writes an object within this transaction's scope (provisional until
  /// commit).
  void write(ObjectId obj, Value value);

  const TxnArgs& args() const { return args_; }
  /// The primary conflict class (the first covered class for multi-class
  /// transactions - procedures spanning classes should address objects via
  /// explicit ids or classes carried in their arguments).
  ClassId conflict_class() const { return klass_; }
  TxnId txn_id() const { return txn_; }

 private:
  const Value& read_logged(ObjectId obj);
  void check_scope(ObjectId obj) const;

  VersionedStore& store_;
  ObjectId scope_lo_ = 0;  // class scope: [scope_lo_, scope_hi_) (precomputed,
  ObjectId scope_hi_ = 0;  // so the per-access check divides nothing)
  const PartitionCatalog* catalog_ = nullptr;          // class-set scope
  std::span<const ClassId> classes_;                   // class-set scope
  const std::vector<ObjectId>* access_set_ = nullptr;  // set scope
  TxnId txn_ = kInvalidTxnId;
  ClassId klass_;
  const TxnArgs& args_;
  ReadLog* reads_ = nullptr;  // caller-owned; nullptr = no logging
};

using Procedure = std::function<void(TxnContext&)>;

/// Site-independent registry of stored procedures. Must be populated
/// identically at every site before the run (procedures are pre-declared).
class ProcedureRegistry {
 public:
  /// Registers a procedure; returns its id. Ids are assigned densely from 0.
  ProcId add(std::string name, Procedure fn);

  const Procedure& get(ProcId id) const;
  const std::string& name(ProcId id) const;
  std::size_t size() const { return procs_.size(); }

 private:
  struct Entry {
    std::string name;
    Procedure fn;
  };
  std::vector<Entry> procs_;
};

}  // namespace otpdb
