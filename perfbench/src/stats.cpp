#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

namespace {

constexpr std::array<double, 52> make_ladder() {
  std::array<double, 52> l{};
  l[0] = 99.99;
  l[1] = 99.9;
  for (int i = 0; i < 50; ++i) l[2 + i] = 99.0 - i;
  return l;
}

constexpr std::array<double, 52> kLadder = make_ladder();

std::size_t rank_of(std::size_t n, double pct) {
  // Nearest rank, 1-based: ceil(pct/100 * n).  The small epsilon keeps an
  // exact product (e.g. 0.99 * 100) from rounding up a whole rank.
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 std::max<std::size_t>(n, 1));
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - rank_of(n, pct);
}

double tail_pct(std::size_t n) {
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= kTailBeyond) return p;
  }
  return 50.0;
}

double percentile_sorted(std::span<const double> sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), pct) - 1];
}

double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, pct);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

LatencySummary summarize_latency(std::span<const double> ordered) {
  LatencySummary s;
  s.samples = ordered.size();
  if (ordered.empty()) return s;
  s.p50 = percentile(std::vector<double>(ordered.begin(), ordered.end()), 50.0);
  s.windows = std::max<std::size_t>(ordered.size() / kWindowSamples, 1);
  const std::size_t per = ordered.size() / s.windows;
  s.tail_pct = tail_pct(per);
  std::vector<double> tails;
  tails.reserve(s.windows);
  for (std::size_t w = 0; w < s.windows; ++w) {
    const auto lo = ordered.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto hi = w + 1 == s.windows
                        ? ordered.end()
                        : lo + static_cast<std::ptrdiff_t>(per);
    tails.push_back(percentile(std::vector<double>(lo, hi), s.tail_pct));
  }
  s.tail = median(std::move(tails));
  return s;
}

}  // namespace perfbench
