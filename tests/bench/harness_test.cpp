// Tests of bench/harness: every allocation overload is counted once, the
// hot-thread count sees only marked threads, and the warm-up loop stops
// where its contract says.  Built only with both tests and bench on; it
// links the harness object library, so this binary counts through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

// Allocations land here so the compiler cannot drop them.
void* volatile g_sink = nullptr;

struct alignas(64) Aligned {
  unsigned char bytes[64];
};

template <typename Fn>
std::uint64_t allocs_during(Fn fn) {
  const std::uint64_t before = harness::allocs();
  fn();
  return harness::allocs() - before;
}

TEST(BenchHarness, EveryAllocationOverloadCountsOnce) {
  constexpr std::align_val_t kAlign{64};
  EXPECT_EQ(allocs_during([] {
              g_sink = ::operator new(24);
              ::operator delete(g_sink);
            }), 1u);
  EXPECT_EQ(allocs_during([] {
              g_sink = ::operator new[](24);
              ::operator delete[](g_sink);
            }), 1u);
  EXPECT_EQ(allocs_during([&] {
              g_sink = ::operator new(24, kAlign);
              ::operator delete(g_sink, kAlign);
            }), 1u);
  EXPECT_EQ(allocs_during([&] {
              g_sink = ::operator new[](24, kAlign);
              ::operator delete[](g_sink, kAlign);
            }), 1u);
  EXPECT_EQ(allocs_during([] {
              g_sink = ::operator new(24, std::nothrow);
              ::operator delete(g_sink, std::nothrow);
            }), 1u);
  EXPECT_EQ(allocs_during([] {
              g_sink = ::operator new[](24, std::nothrow);
              ::operator delete[](g_sink, std::nothrow);
            }), 1u);
  EXPECT_EQ(allocs_during([&] {
              g_sink = ::operator new(24, kAlign, std::nothrow);
              ::operator delete(g_sink, kAlign, std::nothrow);
            }), 1u);
  EXPECT_EQ(allocs_during([&] {
              g_sink = ::operator new[](24, kAlign, std::nothrow);
              ::operator delete[](g_sink, kAlign, std::nothrow);
            }), 1u);
  // A new-expression of an over-aligned type takes the aligned overload.
  EXPECT_EQ(allocs_during([] {
              Aligned* a = new Aligned;
              g_sink = a;
              delete a;
            }), 1u);
}

TEST(BenchHarness, HotAllocsCountOnlyMarkedThreads) {
  std::uint64_t marked = 0;
  std::uint64_t unmarked = 0;
  std::thread([&] {
    harness::mark_hot_thread();
    const std::uint64_t before = harness::hot_allocs();
    g_sink = ::operator new(24);
    ::operator delete(g_sink);
    marked = harness::hot_allocs() - before;
  }).join();
  std::thread([&] {
    const std::uint64_t before = harness::hot_allocs();
    g_sink = ::operator new(24);
    ::operator delete(g_sink);
    unmarked = harness::hot_allocs() - before;
  }).join();
  EXPECT_EQ(marked, 1u);
  EXPECT_EQ(unmarked, 0u);
}

TEST(BenchHarness, WarmUntilSteadyStopsAtTheFirstCleanRoundAfterTheFirst) {
  int calls = 0;
  // Rounds 1-3 allocate, round 4 is the first that does not.
  EXPECT_EQ(harness::warm_until_steady(
                [&] {
                  if (++calls <= 3) {
                    g_sink = ::operator new(24);
                    ::operator delete(g_sink);
                  }
                },
                10),
            4);
  EXPECT_EQ(calls, 4);

  // A clean first round does not count: it may have run on cold buffers.
  calls = 0;
  EXPECT_EQ(harness::warm_until_steady([&] { ++calls; }, 10), 2);
  EXPECT_EQ(calls, 2);
}

TEST(BenchHarness, WarmUntilSteadyGivesUpAtMaxRounds) {
  int calls = 0;
  EXPECT_EQ(harness::warm_until_steady(
                [&] {
                  ++calls;
                  g_sink = ::operator new(24);
                  ::operator delete(g_sink);
                },
                5),
            5);
  EXPECT_EQ(calls, 5);
}

TEST(BenchHarness, WorkerSweepIsClampedToTheHostWithoutRepeats) {
  const std::vector<unsigned> sweep = harness::worker_sweep({1, 4, 8, 8});
  ASSERT_FALSE(sweep.empty());
  EXPECT_EQ(sweep.front(), 1u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i], harness::cpus());
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(sweep[i], sweep[j]);
  }
  EXPECT_EQ(sweep.back(), std::min(8u, harness::cpus()));
}

}  // namespace
