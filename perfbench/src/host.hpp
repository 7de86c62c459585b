// Host fingerprint, process counters and the heap-allocation count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench {

/// Online CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] unsigned nproc();

/// One JSON object naming the host: nproc, the active support::simd ISA,
/// a topology summary, compiler, build type, commit and source digest.
/// `energy_backend` comes from the runtime's meter.
[[nodiscard]] std::string host_json(const std::string& energy_backend,
                                    const std::string& commit,
                                    const std::string& source_digest);

/// getrusage(RUSAGE_SELF) snapshot.
struct ProcSample {
  double cpu_s = 0.0;               ///< user + system
  std::uint64_t ctx_switches = 0;   ///< voluntary + involuntary
  double max_rss_mb = 0.0;          ///< peak resident set
};
[[nodiscard]] ProcSample proc_sample();

/// Heap allocations made through the global operator new.  The benchmark
/// binary links a counting operator new (alloc_counter.cpp) that bumps
/// this; without it (the unit tests) the count stays 0.
extern std::atomic<std::uint64_t> g_heap_allocs;

[[nodiscard]] inline std::uint64_t heap_allocs() noexcept {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench
