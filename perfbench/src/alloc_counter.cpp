// Counting replacement of the global allocation functions, linked into the
// benchmark binary only.  Every operator new bumps perfbench::g_heap_allocs
// (one relaxed add) and forwards to malloc; the workloads read the count
// around their measured window to report pool.allocs_per_task.
#include <cstdlib>
#include <new>

#include "host.hpp"

namespace {

void* counted(std::size_t size) {
  perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t a) {
  return counted_aligned(size, a);
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_aligned(size, a);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
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
