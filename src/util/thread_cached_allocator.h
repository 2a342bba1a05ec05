// An allocator that keeps each thread's freed single-object blocks for its
// next allocations of the same type.
//
// For objects that come and go in bursts of one size — sql::Expr nodes: a
// parse allocates a dozen and the statement frees them together — glibc's
// per-thread cache holds only seven blocks of a size class, so half of
// every burst took the allocator's slow path. With this allocator a block
// freed on a thread is reused by that thread's next allocation of the
// type. Each thread caches at most kMaxCachedBlocks blocks per type;
// beyond that, and when the thread exits, blocks return to operator
// delete. A block freed on another thread than the one that allocated it
// joins the freeing thread's cache (threads share no list, so there is
// nothing to lock).
//
// Under AddressSanitizer a cached block is poisoned, so a use after free
// of a pooled object is still reported.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>

namespace asqp {
namespace util {

template <typename T>
class ThreadCachedAllocator {
 public:
  using value_type = T;

  static constexpr size_t kMaxCachedBlocks = 256;

  ThreadCachedAllocator() = default;
  template <typename U>
  ThreadCachedAllocator(const ThreadCachedAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    if (n == 1) {
      if (void* block = Cache().Pop()) return static_cast<T*>(block);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (n == 1 && Cache().Push(p)) return;
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const ThreadCachedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const ThreadCachedAllocator<U>&) const {
    return false;
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(T) >= sizeof(Block), "a block must hold its link");

  /// One thread's freed blocks of sizeof(T), newest first.
  class BlockCache {
   public:
    BlockCache() = default;
    BlockCache(const BlockCache&) = delete;
    BlockCache& operator=(const BlockCache&) = delete;
    ~BlockCache() {
      while (void* block = Pop()) ::operator delete(block);
    }

    void* Pop() {
      Block* block = head_;
      if (block == nullptr) return nullptr;
      ASAN_UNPOISON_MEMORY_REGION(block, sizeof(T));
      head_ = block->next;
      --size_;
      return block;
    }

    bool Push(void* p) {
      if (size_ >= kMaxCachedBlocks) return false;
      Block* block = ::new (p) Block{head_};
      head_ = block;
      ++size_;
      ASAN_POISON_MEMORY_REGION(block, sizeof(T));
      return true;
    }

   private:
    Block* head_ = nullptr;
    size_t size_ = 0;
  };

  static BlockCache& Cache() {
    static thread_local BlockCache cache;
    return cache;
  }
};

}  // namespace util
}  // namespace asqp
