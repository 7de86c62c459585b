// The one definition of the global allocation functions under bench/, and
// the helpers declared in harness.hpp.  Every overload is replaced, the
// aligned and nothrow ones too: libstdc++'s default aligned operator new
// does not call the plain one, so a counter that replaced only the plain
// overloads would miss every over-aligned allocation.
#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_hot_allocs{0};
thread_local bool t_hot = false;

void count() noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (t_hot) g_hot_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* counted(std::size_t size) noexcept {
  count();
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  count();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace harness {

std::uint64_t allocs() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t hot_allocs() noexcept {
  return g_hot_allocs.load(std::memory_order_relaxed);
}

void mark_hot_thread() noexcept { t_hot = true; }

unsigned cpus() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<unsigned> worker_sweep(std::initializer_list<unsigned> sweep) {
  std::vector<unsigned> out;
  for (const unsigned w : sweep) {
    const unsigned clamped = std::min(w, cpus());
    if (std::find(out.begin(), out.end(), clamped) == out.end()) {
      out.push_back(clamped);
    }
  }
  return out;
}

}  // namespace harness

void* operator new(std::size_t size) { return or_throw(counted(size)); }
void* operator new[](std::size_t size) { return or_throw(counted(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
