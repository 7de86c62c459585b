// Open-loop arrival schedule of the wire workloads.
//
// Arrivals are a Poisson process at a fixed rate: exponential gaps drawn
// from a xoshiro256** stream seeded by --seed, and each request's input
// tile drawn from the same stream.  The whole schedule is built before the
// measured window, so the generator only sleeps and sends.
//
// Every request is timed from when it was DUE, not from when it was sent:
// if the generator falls behind (a host stall, a long flush), the wait it
// imposes on later requests counts in their latency, and the lateness
// itself is reported.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

struct Schedule {
  std::vector<std::int64_t> due_ns;  ///< offsets from the window start
  std::vector<std::uint16_t> tile;   ///< input tile per request
};

/// Arrivals at `rate_hz` over [0, seconds), tiles uniform in [0, tiles).
[[nodiscard]] inline Schedule make_schedule(std::uint64_t seed, double rate_hz,
                                            double seconds,
                                            std::uint16_t tiles) {
  Schedule s;
  sigrt::support::Xoshiro256 rng(seed);
  const auto end = static_cast<std::int64_t>(seconds * 1e9);
  s.due_ns.reserve(static_cast<std::size_t>(rate_hz * seconds * 1.1) + 16);
  s.tile.reserve(s.due_ns.capacity());
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1e9 / rate_hz;
    const auto due = static_cast<std::int64_t>(t);
    if (due >= end) break;
    s.due_ns.push_back(due);
    s.tile.push_back(static_cast<std::uint16_t>(rng.next() % tiles));
  }
  return s;
}

/// Latency of a request measured from its due time.
[[nodiscard]] inline std::int64_t latency_from_due(std::int64_t window_start,
                                                   std::int64_t due_offset,
                                                   std::int64_t received) {
  return received - (window_start + due_offset);
}

/// How late the generator sent a request (0 when on time or early).
[[nodiscard]] inline std::int64_t lateness(std::int64_t window_start,
                                           std::int64_t due_offset,
                                           std::int64_t sent) {
  const std::int64_t late = sent - (window_start + due_offset);
  return late > 0 ? late : 0;
}

}  // namespace perfbench
