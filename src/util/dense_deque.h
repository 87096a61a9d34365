// DenseDeque - a table addressed by a dense 64-bit key (a sender's sequence
// number, a consensus instance, ...), replacing a hash map whose keys arrive
// nearly in order.
//
// Slot k lives at position k - base, where base is the first key touched
// since the last clear(). Touching a key below it grows the front, above the
// back; skipped keys get default-constructed slots. Growth at either end of a
// std::deque keeps references to existing slots valid, so callers may hold
// pointers into the table across inserts.
#pragma once

#include <cstdint>
#include <deque>

namespace otpdb {

template <typename T>
class DenseDeque {
 public:
  /// The slot for `key`, created (with any gap to the current range) if absent.
  T& operator[](std::uint64_t key) {
    if (slots_.empty()) {
      base_ = key;
      return slots_.emplace_back();
    }
    if (key < base_) {
      for (; base_ > key; --base_) slots_.emplace_front();
      return slots_.front();
    }
    const std::uint64_t offset = key - base_;
    if (offset >= slots_.size()) slots_.resize(offset + 1);
    return slots_[offset];
  }

  /// The slot for `key`, or nullptr when it lies outside the current range.
  const T* find(std::uint64_t key) const {
    if (key < base_ || key - base_ >= slots_.size()) return nullptr;
    return &slots_[key - base_];
  }

  void clear() {
    slots_.clear();
    base_ = 0;
  }

  /// Slots in ascending key order.
  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }

 private:
  std::uint64_t base_ = 0;
  std::deque<T> slots_;
};

}  // namespace otpdb
