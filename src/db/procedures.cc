#include "db/procedures.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

void TxnContext::check_scope(ObjectId obj) const {
  if (catalog_ != nullptr) {
    // Class-set scope: the object's class must be one of the covered classes
    // (ascending, tiny - typically two - so a linear probe beats a binary
    // search's branches).
    const ClassId klass = catalog_->class_of(obj);
    const bool covered = std::find(classes_.begin(), classes_.end(), klass) != classes_.end();
    OTPDB_CHECK_MSG(covered, "update transaction touched an object outside its class set");
  } else if (access_set_ == nullptr) {
    OTPDB_CHECK_MSG(obj >= scope_lo_ && obj < scope_hi_,
                    "update transaction touched an object outside its conflict class");
  } else {
    const bool declared =
        std::find(access_set_->begin(), access_set_->end(), obj) != access_set_->end();
    OTPDB_CHECK_MSG(declared, "update transaction touched an undeclared object");
  }
}

namespace {
const Value kZeroValue{std::int64_t{0}};
}  // namespace

const Value& TxnContext::read_logged(ObjectId obj) {
  check_scope(obj);
  const Value* p = store_.read_for_txn_ptr(txn_, obj);
  const Value& v = p ? *p : kZeroValue;
  if (reads_ != nullptr) reads_->emplace_back(obj, v);
  return v;
}

Value TxnContext::read(ObjectId obj) { return read_logged(obj); }

std::int64_t TxnContext::read_int(ObjectId obj) { return as_int(read_logged(obj)); }

void TxnContext::write(ObjectId obj, Value value) {
  check_scope(obj);
  store_.write(txn_, obj, std::move(value));
}

ProcId ProcedureRegistry::add(std::string name, Procedure fn) {
  OTPDB_CHECK(fn != nullptr);
  procs_.push_back(Entry{std::move(name), std::move(fn)});
  return static_cast<ProcId>(procs_.size() - 1);
}

const Procedure& ProcedureRegistry::get(ProcId id) const {
  OTPDB_CHECK_MSG(id < procs_.size(), "unknown stored procedure");
  return procs_[id].fn;
}

const std::string& ProcedureRegistry::name(ProcId id) const {
  OTPDB_CHECK(id < procs_.size());
  return procs_[id].name;
}

}  // namespace otpdb
