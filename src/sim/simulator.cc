#include "sim/simulator.h"

#include <algorithm>

namespace otpdb {

namespace {
constexpr std::size_t kArity = 4;  // children per heap node
}  // namespace

Simulator::~Simulator() {
  for (const Key key : heap_) {
    if (!live(key)) continue;
    Slot& s = slot(slot_of(tag_of(key)));
    if (s.drop != nullptr) s.drop(s.buf);
  }
}

std::uint32_t Simulator::grow_slots() {
  if (slot_count_ == chunks_.size() * kChunkSlots) {
    OTPDB_CHECK_MSG(slot_count_ < kSlotMask, "too many pending events");
    // Default-initialized: a slot's fields are written when it is armed.
    chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
  }
  return slot_count_++;
}

EventId Simulator::arm(std::uint32_t index, SimTime at) {
  OTPDB_CHECK_MSG(next_seq_ < kSeqLimit, "event sequence numbers exhausted");
  const std::uint64_t tag = next_seq_++ << kSlotBits | index;
  slot(index).tag = tag;
  push(static_cast<Key>(static_cast<std::uint64_t>(at)) << 64 | tag);
  ++live_;
  return EventId{tag};
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t tag = id.value;
  const std::uint32_t index = slot_of(tag);
  if (tag == 0 || index >= slot_count_) return false;
  Slot& s = slot(index);
  if (s.tag != tag) return false;  // fired, running or cancelled
  s.tag = 0;
  if (s.drop != nullptr) s.drop(s.buf);
  release_slot(index);
  --live_;
  ++stale_;
  if (tag_of(heap_.front()) == tag) {
    drop_stale_tops();
  } else if (stale_ > live_) {
    compact();
  }
  return true;
}

void Simulator::fire_top() {
  const Key top = heap_.front();
  pop_top();
  drop_stale_tops();
  const std::uint32_t index = slot_of(tag_of(top));
  Slot& s = slot(index);
  s.tag = 0;  // cancel() of a running event fails
  --live_;
  now_ = time_of(top);
  ++executed_;
  s.run(s.buf);
  release_slot(index);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  for (; n < limit && !heap_.empty(); ++n) fire_top();
  return n;
}

void Simulator::run_until(SimTime deadline) {
  while (!heap_.empty() && time_of(heap_.front()) <= deadline) fire_top();
  now_ = std::max(now_, deadline);
}

void Simulator::push(Key key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  Key* h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (h[parent] < key) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = key;
}

void Simulator::pop_top() {
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Simulator::sift_down(std::size_t hole, Key key) {
  Key* h = heap_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    Key least_key = h[first];
    for (std::size_t c = first + 1; c < end; ++c) {
      const Key k = h[c];
      const bool less = k < least_key;
      least = less ? c : least;
      least_key = less ? k : least_key;
    }
    if (key < least_key) break;
    h[hole] = least_key;
    hole = least;
  }
  h[hole] = key;
}

void Simulator::drop_stale_tops() {
  while (!heap_.empty() && !live(heap_.front())) {
    pop_top();
    --stale_;
  }
}

void Simulator::compact() {
  std::erase_if(heap_, [this](Key key) { return !live(key); });
  stale_ = 0;
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) sift_down(i, heap_[i]);
}

}  // namespace otpdb
