// Counting global operator new/delete for allocation-regression tests and
// bench counters (the simulator's zero-alloc-per-event guarantee).
//
// This header DEFINES the global replacement allocation functions, which the
// standard requires to be non-inline: include it in EXACTLY ONE translation
// unit of a binary (the test/bench main TU). Every allocation in the binary
// bumps otpdb::heap_alloc_count; measure across a hot region by differencing
// the counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace otpdb {
inline std::atomic<std::uint64_t> heap_alloc_count{0};
}  // namespace otpdb

void* operator new(std::size_t size) {
  otpdb::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  otpdb::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
