// Wall-clock timing utilities used by the runtime's activity accounting and
// by the benchmark harnesses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace sigrt::support {

/// Monotonic nanosecond timestamp.  steady_clock is mandated so that the
/// energy model's busy/idle integration is immune to NTP adjustments.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Simple start/stop stopwatch.  Restartable; accumulates across intervals.
class Stopwatch {
 public:
  void start() noexcept { start_ns_ = now_ns(); }

  /// Stops the current interval and folds it into the accumulated total.
  void stop() noexcept {
    accum_ns_ += now_ns() - start_ns_;
    start_ns_ = 0;
  }

  void reset() noexcept {
    accum_ns_ = 0;
    start_ns_ = 0;
  }

  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    std::int64_t total = accum_ns_;
    if (start_ns_ != 0) total += now_ns() - start_ns_;
    return total;
  }

  [[nodiscard]] double elapsed_s() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::int64_t accum_ns_ = 0;
  std::int64_t start_ns_ = 0;  // 0 == not running
};

/// Cycle-granularity clock for per-task busy accounting.  A vDSO
/// clock_gettime costs ~20-25 ns; two of them per task (enter/exit) were
/// ~10% of the scheduler's per-task budget.  now() is a raw TSC read
/// (~5 ns); readers convert accumulated cycle deltas to nanoseconds with
/// to_ns(), which calibrates the TSC rate once against the monotonic
/// clock — conversion happens on the cold stats path, never per task.
/// Non-x86 builds fall back to now_ns() (cycles are then nanoseconds,
/// ratio 1).
class CycleClock {
 public:
  [[nodiscard]] static std::uint64_t now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(now_ns());
#endif
  }

  /// Cycles elapsed since `start`, clamped at zero: on machines without a
  /// synchronized invariant TSC a thread migrated between cores mid-interval
  /// can observe a smaller counter, and an unclamped subtraction would wrap
  /// to ~2^64 and permanently corrupt the accumulator it feeds.
  [[nodiscard]] static std::uint64_t elapsed(std::uint64_t start) noexcept {
    const std::uint64_t end = now();
    return end >= start ? end - start : 0;
  }

  /// Converts a cycle delta to nanoseconds at a rate that never changes
  /// after the first call, so converting a growing cycle count yields a
  /// growing duration.
  [[nodiscard]] static std::int64_t to_ns(std::uint64_t cycles) noexcept {
#if defined(__x86_64__) || defined(__i386__)
    const double r = ns_per_cycle();
    return static_cast<std::int64_t>(static_cast<double>(cycles) * r);
#else
    return static_cast<std::int64_t>(cycles);
#endif
  }

 private:
  /// Calibration window: the rate is measured over at least this much
  /// time since process start, then frozen.  A first conversion earlier
  /// than that sleeps out the remainder once.
  static constexpr std::int64_t kCalibrationNs = 20'000'000;

  struct Sample {
    std::int64_t ns;
    std::uint64_t cycles;
  };

  /// One (clock, TSC) pair: the TSC read is bracketed by two clock reads
  /// and the tightest of a few tries is kept, so a preemption between the
  /// reads cannot skew the frozen rate.
  [[nodiscard]] static Sample sample() noexcept {
    Sample best{0, 0};
    std::int64_t best_gap = -1;
    for (int i = 0; i < 4; ++i) {
      const std::int64_t before = now_ns();
      const std::uint64_t cycles = now();
      const std::int64_t gap = now_ns() - before;
      if (best_gap < 0 || gap < best_gap) {
        best_gap = gap;
        best = {before + gap / 2, cycles};
      }
    }
    return best;
  }

  // Process-start anchor (static initialization, not first use), so the
  // window has usually elapsed by the first stats read.
  static inline const Sample start_ = sample();

  [[nodiscard]] static double ns_per_cycle() noexcept {
    static const double rate = [] {
      const std::int64_t left = start_.ns + kCalibrationNs - now_ns();
      if (left > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left));
      }
      const Sample end = sample();
      const std::int64_t dn = end.ns - start_.ns;
      const std::uint64_t dc = end.cycles - start_.cycles;
      if (dc == 0 || dn <= 0) return 1.0;
      return static_cast<double>(dn) / static_cast<double>(dc);
    }();
    return rate;
  }
};

/// RAII timer that adds the scope's duration to an external accumulator.
/// The runtime wraps task execution in one of these to attribute busy time
/// to workers for the energy model.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::int64_t& sink_ns) noexcept
      : sink_ns_(sink_ns), start_(now_ns()) {}
  ~ScopedTimer() { sink_ns_ += now_ns() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int64_t& sink_ns_;
  std::int64_t start_;
};

}  // namespace sigrt::support
