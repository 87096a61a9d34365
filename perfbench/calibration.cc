#include "calibration.h"

#include <chrono>

namespace perfbench {
namespace {

constexpr std::uint32_t kTableBits = 20;  // 2^20 buckets x 32 B = 32 MiB
constexpr std::uint32_t kKeys = 1u << (kTableBits - 1);  // load factor 1/2
constexpr std::size_t kHeapEvents = 1u << 15;
constexpr std::size_t kOpsPerUnit = 24000;

std::uint32_t bucket_of(std::uint32_t key) {
  return static_cast<std::uint32_t>((key * 0x9E3779B1u) >> (32 - kTableBits));
}

struct Lcg {
  std::uint64_t state;
  std::uint32_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  }
};

}  // namespace

CalibrationKernel::CalibrationKernel() : table_(std::size_t{1} << kTableBits) {
  // Keys are 1..kKeys (0 marks an empty bucket); every lookup hits.
  for (std::uint32_t key = 1; key <= kKeys; ++key) {
    std::uint32_t b = bucket_of(key);
    while (table_[b].key != 0) b = (b + 1) & ((1u << kTableBits) - 1);
    table_[b].key = key;
  }
  heap_.reserve(kHeapEvents + 1);
}

CalibrationKernel::Bucket& CalibrationKernel::find(std::uint32_t key) {
  std::uint32_t b = bucket_of(key);
  while (table_[b].key != key) b = (b + 1) & ((1u << kTableBits) - 1);
  return table_[b];
}

void CalibrationKernel::push(Event e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].at <= e.at) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

CalibrationKernel::Event CalibrationKernel::pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (n > 0) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].at < heap_[child].at) ++child;
    if (last.at <= heap_[child].at) break;
    heap_[i] = heap_[child];
    i = child;
  }
  if (n > 0) heap_[i] = last;
  return top;
}

void CalibrationKernel::simulate() {
  Lcg rng{0x5DEECE66DULL};
  heap_.clear();
  for (std::size_t i = 0; i < kHeapEvents; ++i) {
    push(Event{rng.next() % 1000000, 1 + rng.next() % kKeys});
  }
  for (std::size_t op = 0; op < kOpsPerUnit; ++op) {
    const Event e = pop();
    Bucket& bucket = find(e.key);
    bucket.vals[bucket.n % 6] = static_cast<std::uint32_t>(e.at);
    ++bucket.n;
    sink_ += bucket.vals[e.at % 6];
    push(Event{e.at + 1 + rng.next() % 1000, 1 + rng.next() % kKeys});
  }
  // Folding the checksum into a member keeps the work observable.
  sink_ ^= heap_.front().at;
}

double CalibrationKernel::run_unit() {
  // An untimed pass first: it brings the kernel's own lines back into the
  // caches, whatever the simulation slice before it evicted, so the timed
  // pass starts from the same state after any program under test.
  simulate();
  const auto start = std::chrono::steady_clock::now();
  simulate();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace perfbench
