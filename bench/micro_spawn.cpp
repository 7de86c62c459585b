// Zero-allocation spawn gate: counts heap allocations per task through an
// instrumented global operator new and times the spawn hot path.
//
// The pooled intrusive task lifecycle promises that, once the slab pool and
// the scheduler's buffers are warm, spawning and completing a task with
// bodies whose captures fit InlineFn's 64-byte SBO performs ZERO heap
// allocations: the Task comes from a recycled slab slot, the bodies live
// inline in that slot, and every scratch buffer on the release/complete
// paths is thread-local and capacity-stable.  This driver measures exactly
// that, steady-state, after warm-up rounds identical to the measured round:
//
//   allocs_per_task = (operator-new calls during round) / tasks
//   ns_per_spawn    = master-side cost of Runtime::spawn alone
//
// Runs 8 workers, clamped to the host's CPUs (the record names the count
// used).  Output is one JSON line in the micro_runtime record format so CI
// uploads it next to the throughput record (BENCH_*.json); command-line
// arguments are ignored.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/sigrt.hpp"
#include "support/timer.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Replaceable global allocation functions: every heap allocation in the
// process (runtime, library internals, everything) goes through here.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

struct SpawnRecord {
  std::uint64_t tasks = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  double ns_per_spawn = 0.0;
  double wall_s = 0.0;
  double tasks_per_sec = 0.0;
};

SpawnRecord measure(unsigned workers, std::uint64_t tasks, int max_warmup) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = sigrt::PolicyKind::LQH;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  const auto g = rt.create_group("spawn", 0.5);

  // Bodies capture 16 bytes — comfortably inside the 64-byte SBO contract
  // this gate certifies.
  auto spawn_round = [&rt, g](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t tag = i;
      rt.spawn(sigrt::task([tag] { (void)tag; })
                   .approx([tag] { (void)tag; })
                   .significance(static_cast<double>(i % 9 + 1) / 10.0)
                   .group(g));
    }
  };

  // Warm-up: populate the slab pool to the workload's high-water mark,
  // size the deques/inboxes, and build the LQH histories.  The in-flight
  // peak depends on spawn/execute interleaving, so warm at 1.5x the
  // measured pressure and repeat until one full round allocates nothing
  // (true steady state), bounded by max_warmup rounds.
  for (int r = 0; r < max_warmup; ++r) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    spawn_round(tasks + tasks / 2);
    rt.wait_group(g);
    if (r > 0 && g_allocs.load(std::memory_order_relaxed) == before) break;
  }

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t t0 = sigrt::support::now_ns();
  spawn_round(tasks);
  const std::int64_t t_spawned = sigrt::support::now_ns();
  rt.wait_group(g);
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);

  SpawnRecord r;
  r.tasks = tasks;
  r.allocs = a1 - a0;
  r.allocs_per_task =
      static_cast<double>(r.allocs) / static_cast<double>(tasks);
  r.ns_per_spawn =
      static_cast<double>(t_spawned - t0) / static_cast<double>(tasks);
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (r.wall_s > 0) {
    r.tasks_per_sec = static_cast<double>(tasks) / r.wall_s;
  }
  return r;
}

}  // namespace

int main(int, char**) {
  constexpr unsigned kWorkers = 8;
  constexpr std::uint64_t kTasks = 200000;
  // More workers than CPUs only measures the oversubscription.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(kWorkers, cpus);
  const SpawnRecord r = measure(workers, kTasks, /*max_warmup=*/8);
  std::printf(
      "{\"bench\":\"micro_spawn\",\"cpus\":%u,\"workers\":%u,\"tasks\":%" PRIu64
      ",\"allocs\":%" PRIu64
      ",\"allocs_per_task\":%.6f,\"ns_per_spawn\":%.1f,\"wall_s\":%.6f,"
      "\"tasks_per_sec\":%.1f}\n",
      cpus, workers, r.tasks, r.allocs, r.allocs_per_task, r.ns_per_spawn, r.wall_s,
      r.tasks_per_sec);
  return 0;
}
