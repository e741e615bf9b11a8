// Counting replacements for the global allocation functions (see
// alloc_count.h). Every form of operator new funnels into CountedAlloc;
// every operator delete into free().
#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc requires a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perf {

AllocTotals AllocSnapshot() {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perf

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAllocOrThrow(size, std::size_t(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAllocOrThrow(size, std::size_t(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, std::size_t(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, std::size_t(al));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
