// Recycled storage: a free list of same-size blocks, the standard-library
// allocator built on it, and a pool of shared message bodies.
//
// FreeBlocks keeps released blocks of one size for reuse. RecyclingAllocator
// puts a container's element blocks on such a list: a std::deque that slides
// (elements pushed at the back, popped at the front) allocates nothing once
// the list holds its high-water mark of blocks. DenseDeque's tables and
// OptAbcast's message queues sit on it. BodyPool hands out message bodies as
// shared pointers; their shared_ptr control blocks come from its FreeBlocks
// and the bodies themselves are cleared and kept, so sending a message
// allocates nothing once the pool is warm.
//
// Each list and pool belongs to one object of one cluster and is created
// with it (a pool's storage on its first acquire), so two identical clusters
// in one process allocate identically. None of it is synchronized: the
// simulator runs on one thread.
//
// Under AddressSanitizer a listed block and a pooled body are poisoned, so a
// use of either after its release is reported as a use after free would be.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#define OTPDB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OTPDB_ASAN 1
#endif
#endif
#ifdef OTPDB_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace otpdb {

namespace recycling_detail {

/// Makes [p, p + bytes) unaddressable under AddressSanitizer.
inline void poison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t bytes) {
#ifdef OTPDB_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}

/// Makes [p, p + bytes) addressable again.
inline void unpoison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t bytes) {
#ifdef OTPDB_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

}  // namespace recycling_detail

/// Released heap blocks of one size, kept for reuse. The first block
/// released fixes the size; a block of another size goes back to the heap.
/// The list frees what it holds when it is destroyed.
class FreeBlocks {
 public:
  FreeBlocks() = default;
  FreeBlocks(const FreeBlocks&) = delete;
  FreeBlocks& operator=(const FreeBlocks&) = delete;
  ~FreeBlocks() {
    while (head_ != nullptr) ::operator delete(pop());
  }

  /// A block of `bytes`: a listed one when the list holds that size, else a
  /// fresh one from the heap.
  void* allocate(std::size_t bytes) {
    if (head_ != nullptr && bytes == bytes_) return pop();
    return ::operator new(bytes);
  }

  /// Releases `p`, a block of `bytes` from allocate().
  void deallocate(void* p, std::size_t bytes) {
    if (bytes_ == 0 && bytes >= sizeof(Block)) bytes_ = bytes;
    if (bytes != bytes_) {
      ::operator delete(p);
      return;
    }
    head_ = ::new (p) Block{head_};
    recycling_detail::poison(p, bytes_);
  }

 private:
  struct Block {
    Block* next;
  };

  void* pop() {
    Block* block = head_;
    recycling_detail::unpoison(block, bytes_);
    head_ = block->next;
    return block;
  }

  Block* head_ = nullptr;
  std::size_t bytes_ = 0;  // the size listed blocks have; 0 until one is
};

/// A standard-library allocator that recycles the blocks it allocates as
/// arrays of `Block` through a FreeBlocks, and takes every other allocation
/// from the heap. A std::deque<T> allocates every element block in one size
/// and rarely reallocates its map of block pointers, so with Block = T its
/// element blocks recycle and its map stays on the heap.
template <typename T, typename Block = T>
struct RecyclingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  explicit RecyclingAllocator(FreeBlocks* list) : blocks(list) {}
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U, Block>& other) : blocks(other.blocks) {}

  T* allocate(std::size_t n) {
    if constexpr (std::is_same_v<T, Block>) {
      return static_cast<T*>(blocks->allocate(n * sizeof(T)));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
  }

  void deallocate(T* p, std::size_t n) {
    if constexpr (std::is_same_v<T, Block>) {
      blocks->deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U, Block>& other) const {
    return blocks == other.blocks;
  }

  FreeBlocks* blocks;
};

/// A pool of message bodies of type T, handed out as shared pointers. T is
/// default-constructible and has clear(), which resets every field and keeps
/// the capacity its vectors hold. When the last pointer to a body drops
/// (aliasing pointers into it included), the body is cleared and kept for
/// the next acquire(), and its control block goes back to the pool's
/// FreeBlocks. A warm pool therefore hands out bodies without allocating,
/// and a body's vectors fill without allocating once they have held as much
/// before.
///
/// The pool's storage is created on the first acquire(). A body may outlive
/// its pool (a queued delivery, a peer's log): the storage lives until the
/// pool and every body it handed out are gone.
template <typename T>
class BodyPool {
 public:
  BodyPool() = default;
  BodyPool(const BodyPool&) = delete;
  BodyPool& operator=(const BodyPool&) = delete;
  ~BodyPool() {
    if (store_ != nullptr) store_->release();
  }

  /// A cleared body that nothing else points to.
  std::shared_ptr<T> acquire() {
    if (store_ == nullptr) store_ = new Store;
    Node* node = store_->take();
    return std::shared_ptr<T>(&node->body, Recycle{store_, node}, ControlAllocator<T>{store_});
  }

 private:
  struct Node {
    T body;
    Node* next = nullptr;
  };

  /// The bodies and control blocks, shared by the pool and the bodies out.
  struct Store {
    FreeBlocks control_blocks;
    Node* free = nullptr;  // cleared bodies ready for acquire()
    std::size_t refs = 1;  // the pool's, plus one per control block out

    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    ~Store() {
      while (free != nullptr) delete take();
    }

    Node* take() {
      if (free == nullptr) return new Node;
      Node* node = free;
      recycling_detail::unpoison(&node->body, sizeof(T));
      free = node->next;
      return node;
    }

    void give(Node* node) {
      // Clearing may release other bodies of this pool (a consensus payload
      // holds a value inside another): they are listed first.
      node->body.clear();
      node->next = free;
      free = node;
      recycling_detail::poison(&node->body, sizeof(T));
    }

    void release() {
      if (--refs == 0) delete this;
    }
  };

  /// The deleter: lists the body again.
  struct Recycle {
    Store* store;
    Node* node;
    void operator()(T*) const { store->give(node); }
  };

  /// The control blocks' allocator. The store counts the blocks out, and a
  /// control block is released after its deleter ran, so the store outlives
  /// every use of its bodies.
  template <typename U>
  struct ControlAllocator {
    using value_type = U;
    explicit ControlAllocator(Store* s) : store(s) {}
    template <typename V>
    ControlAllocator(const ControlAllocator<V>& other) : store(other.store) {}

    U* allocate(std::size_t n) {
      ++store->refs;
      return static_cast<U*>(store->control_blocks.allocate(n * sizeof(U)));
    }
    void deallocate(U* p, std::size_t n) {
      store->control_blocks.deallocate(p, n * sizeof(U));
      store->release();
    }
    template <typename V>
    bool operator==(const ControlAllocator<V>& other) const {
      return store == other.store;
    }

    Store* store;
  };

  Store* store_ = nullptr;
};

}  // namespace otpdb
