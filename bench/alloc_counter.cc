#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace planorder::bench {
namespace {

std::atomic<int64_t> allocations{0};
std::atomic<int64_t> bytes{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(alignment, (size + alignment - 1) / alignment *
                                          alignment);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocationCount AllocationsSoFar() {
  return {allocations.load(std::memory_order_relaxed),
          bytes.load(std::memory_order_relaxed)};
}

}  // namespace planorder::bench

using planorder::bench::CountedAlloc;

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
