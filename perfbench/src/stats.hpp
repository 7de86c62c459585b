// Order statistics shared by every workload.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// ceil(p/100 * n)-th smallest.  The tail a record reports is the highest
// percentile of the ladder 99.99, 99.9, 99, 98, ..., 50 that still has at
// least kTailBeyond samples strictly above its rank, so a tail is never read
// off a handful of points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

/// Highest ladder percentile with at least kTailBeyond samples beyond it;
/// 50 when even the median has fewer (n < 20).
[[nodiscard]] double tail_pct(std::size_t n);

/// Nearest-rank percentile of ascending `sorted`; 0 when empty.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double pct);

/// Sorts a copy and returns its percentile.
[[nodiscard]] double percentile(std::vector<double> v, double pct);

[[nodiscard]] double median(std::vector<double> v);

/// Latency summary of one measured window.
///
/// The median is taken over every sample.  The tail is windowed: samples
/// are split, in completion order, into consecutive windows of at least
/// kWindowSamples; each window reports its own tail (at the percentile
/// tail_pct() picks for the window's size: p90 for 100 samples) and the
/// summary reports the median of those.  A host stall or a noisy stretch
/// then moves a few windows' tails instead of the whole figure.
inline constexpr std::size_t kWindowSamples = 100;

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;   ///< percentile each window's tail was read at
  std::size_t windows = 1;  ///< windows the tail is the median of
};

/// `ordered` is in completion order.
[[nodiscard]] LatencySummary summarize_latency(std::span<const double> ordered);

}  // namespace perfbench
