// Shared pieces of the bench/ drivers.
//
// harness.cpp replaces every global allocation function with one that
// counts, so a driver reads its heap allocations around a measured window
// without a private operator new.  It is linked into every bench_* binary
// as an object library, so the replacement holds even in a driver that
// calls nothing declared here.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace harness {

/// Heap allocations made by the whole process so far: each call of any
/// operator new overload (plain, array, aligned, nothrow) adds one.
[[nodiscard]] std::uint64_t allocs() noexcept;

/// Allocations made so far by threads that called mark_hot_thread().
[[nodiscard]] std::uint64_t hot_allocs() noexcept;

/// Counts the calling thread's allocations in hot_allocs() from now on.
void mark_hot_thread() noexcept;

/// The host's CPU count (hardware_concurrency(), at least 1).
[[nodiscard]] unsigned cpus() noexcept;

/// `sweep` with every count clamped to cpus() and repeats dropped, in
/// order: more workers than CPUs only measures the oversubscription.
[[nodiscard]] std::vector<unsigned> worker_sweep(
    std::initializer_list<unsigned> sweep);

/// Runs `round()` until a round after the first allocates nothing (the
/// pools and buffers it touches have reached their high-water marks), or
/// `max_rounds` rounds have run.  Returns the number of rounds run.
template <typename Round>
int warm_until_steady(Round&& round, int max_rounds) {
  for (int r = 0; r < max_rounds; ++r) {
    const std::uint64_t before = allocs();
    round();
    if (r > 0 && allocs() == before) return r + 1;
  }
  return max_rounds;
}

}  // namespace harness
