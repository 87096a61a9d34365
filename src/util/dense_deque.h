// DenseDeque - a table addressed by a dense 64-bit key (a sender's sequence
// number, a consensus instance, ...), replacing a hash map whose keys arrive
// nearly in order.
//
// Slot k lives at position k - base, where base is the first key touched
// since the last clear(). Touching a key below it grows the front, above the
// back; skipped keys get default-constructed slots. Growth at either end of a
// std::deque keeps references to existing slots valid, so callers may hold
// pointers into the table across inserts.
//
// trim_front(key) drops every slot below `key` for good: a trimmed key is
// never re-created (operator[] CHECK-fails on it, find() returns null), so
// callers test trimmed() before touching a key that may lie below the front.
// Only clear() forgets the trimmed front.
//
// Recycled storage: the deque sits on a RecyclingAllocator
// (util/recycling.h), so the element blocks that trim_front and clear
// release go onto the table's own FreeBlocks and the deque takes its next
// blocks from there. A window that slides through the keys - slots created
// at the back, trimmed at the front - therefore allocates nothing once the
// table has held its high-water mark of blocks; the table keeps that many
// until it is destroyed. Under AddressSanitizer a listed block is poisoned,
// so a pointer kept into a trimmed slot is reported when it is used. What a
// slot points to (a shared payload, say) lives wherever its owner put it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "util/assert.h"
#include "util/recycling.h"

namespace otpdb {

template <typename T>
class DenseDeque {
 public:
  DenseDeque() = default;
  // The deque's allocator points at the free list that lives beside it.
  DenseDeque(const DenseDeque&) = delete;
  DenseDeque& operator=(const DenseDeque&) = delete;

  /// The slot for `key`, created (with any gap to the current range) if absent.
  /// `key` must not be trimmed.
  T& operator[](std::uint64_t key) {
    OTPDB_CHECK_MSG(key >= front_, "DenseDeque key below the trimmed front");
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

  /// True when `key` was trimmed (it lies below the front).
  bool trimmed(std::uint64_t key) const { return key < front_; }
  /// The lowest key that is not trimmed. Keys from it up to first_key() were
  /// never touched since the last trim.
  std::uint64_t front_key() const { return front_; }
  /// The key of the first slot (meaningless while empty()).
  std::uint64_t first_key() const { return base_; }

  /// Drops every slot below `key` and never re-creates those keys. A no-op
  /// for a key at or below the current front.
  void trim_front(std::uint64_t key) {
    if (key <= front_) return;
    front_ = key;
    while (!slots_.empty() && base_ < key) {
      slots_.pop_front();
      ++base_;
    }
    if (slots_.empty()) base_ = key;
  }

  /// Drops every slot and forgets the trimmed front.
  void clear() {
    slots_.clear();
    base_ = 0;
    front_ = 0;
  }

  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }

  /// Slots in ascending key order.
  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }

 private:
  std::uint64_t base_ = 0;
  std::uint64_t front_ = 0;  // keys below it are trimmed
  FreeBlocks free_;  // before slots_: outlives it
  std::deque<T, RecyclingAllocator<T>> slots_{RecyclingAllocator<T>(&free_)};
};

}  // namespace otpdb
