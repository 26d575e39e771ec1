#include "src/runtime/arena.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define P2_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define P2_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define P2_POISON(p, n) ((void)(p), (void)(n))
#define P2_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace p2 {

namespace {

// 64-byte size classes up to 4 KiB cover every tuple block the engine mints
// (control block + Tuple, ValueList buffers, vector growth steps); anything
// bigger is rare enough to pay the heap round trip.
constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kNumClasses = 64;
constexpr std::size_t kMaxClassSize = kClassBytes * kNumClasses;

inline std::size_t ClassIndex(std::size_t size) {
  return (size + kClassBytes - 1) / kClassBytes - 1;  // size >= 1
}

inline std::size_t ClassSize(std::size_t idx) { return (idx + 1) * kClassBytes; }

// Freed blocks double as singly-linked list nodes (every class is >= 64 bytes,
// comfortably holding a pointer at suitable alignment).
struct FreeNode {
  FreeNode* next;
};

// A parked block stays readable only in its link word; the rest is poisoned so
// ASan reports any access through a dangling reference to recycled storage.
void Park(FreeNode* node, FreeNode* next, std::size_t bytes) {
  node->next = next;
  P2_POISON(reinterpret_cast<char*>(node) + sizeof(FreeNode), bytes - sizeof(FreeNode));
}

// Undoes Park before a block is handed out again or returned to the heap.
FreeNode* Unpark(FreeNode* node, std::size_t bytes) {
  P2_UNPOISON(node, bytes);
  return node;
}

struct ThreadCache {
  FreeNode* head[kNumClasses] = {};
  std::size_t count = 0;

  ~ThreadCache() { Release(); }

  // Returns every parked block to the heap.
  void Release() {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      FreeNode* node = head[c];
      while (node != nullptr) {
        FreeNode* next = node->next;
        ::operator delete(Unpark(node, ClassSize(c)));
        node = next;
      }
      head[c] = nullptr;
    }
    count = 0;
  }
};

ThreadCache& Cache() {
  static thread_local ThreadCache cache;
  return cache;
}

}  // namespace

std::atomic<std::uint64_t> TupleArena::fresh_bytes_{0};
std::atomic<std::uint64_t> TupleArena::fresh_blocks_{0};
std::atomic<std::uint64_t> TupleArena::recycled_blocks_{0};

void* TupleArena::Allocate(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxClassSize) {
    fresh_bytes_.fetch_add(size, std::memory_order_relaxed);
    fresh_blocks_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(size);
  }
  const std::size_t idx = ClassIndex(size);
  const std::size_t bytes = ClassSize(idx);
  ThreadCache& cache = Cache();
  FreeNode* node = cache.head[idx];
  if (node != nullptr) {
    cache.head[idx] = node->next;
    --cache.count;
    recycled_blocks_.fetch_add(1, std::memory_order_relaxed);
    return Unpark(node, bytes);
  }
  fresh_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  fresh_blocks_.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(bytes);
}

void TupleArena::Deallocate(void* p, std::size_t size) noexcept {
  if (p == nullptr) {
    return;
  }
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxClassSize) {
    ::operator delete(p);
    return;
  }
  ThreadCache& cache = Cache();
  const std::size_t idx = ClassIndex(size);
  FreeNode* node = static_cast<FreeNode*>(p);
  Park(node, cache.head[idx], ClassSize(idx));
  cache.head[idx] = node;
  ++cache.count;
}

std::size_t TupleArena::ThreadCachedBlocks() { return Cache().count; }

void TupleArena::TrimThreadCache() { Cache().Release(); }

}  // namespace p2
