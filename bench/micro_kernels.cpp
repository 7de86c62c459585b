// Per-kernel ns/element microbench for the SIMD-dispatched app kernels.
//
// Grid: kernel {sobel, dct, jacobi, kmeans}
//     x ratio  {1.00, 0.75, 0.50}   (perforation rate = 1 - ratio)
//     x impl   {scalar, simd}       (support::simd::set_active)
//     x shape  {modulo, block}      (perforation::Shape of the inner loop)
//
// Each cell drives the *shipped* kernel entry points (apps/kernels.hpp)
// over the surviving iterations of the perforated inner loop:
//
//  - ratio 1.00 runs the dense kernel (no perforation — a compiler would
//    emit the plain loop), so scalar-vs-simd at ratio 1.00 is the pure
//    vectorization speedup the acceptance gate reads.
//  - modulo yields unit runs: each surviving element goes through a
//    1-element kernel call / scalar accumulate — the classic scattered
//    comparator, which defeats vectorization.
//  - block yields dense aligned runs (perforation::perforate_blocks) that
//    still feed the vector kernels — the vectorization-preserving redesign.
//
// ns_per_element is wall time divided by *surviving* elements (the work
// actually executed), so block-vs-modulo at equal ratio compares
// ns/surviving-element directly.  Heap allocations are counted through the
// harness's counting operator new; the hot loops are fully preallocated,
// so allocs is expected to be 0 for every cell.
//
// Output: one JSON line (record with a "cells" array) in the BENCH_*.json
// convention.  Cells are labelled by their string fields, so ratio is
// emitted as a string.  `--impl=scalar|simd` restricts the grid to one
// impl and omits the impl/level tags from the cells — that makes
//
//   ab_compare.py "./bench_micro_kernels --impl=scalar" \
//                 "./bench_micro_kernels --impl=simd"
//
// line the two sides' cell labels up for interleaved A/B medians.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "harness.hpp"
#include "perforation/perforate.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace {

namespace kern = sigrt::apps::kern;
namespace perf = sigrt::perforation;
namespace simd = sigrt::support::simd;

volatile double g_sink = 0.0;

using Runs = std::vector<std::pair<std::size_t, std::size_t>>;

/// Surviving [begin, end) runs of the perforated inner loop, plus the
/// surviving element count.  rate <= 0 (ratio 1.0) is the dense loop for
/// every shape.  Selection happens once, outside the measured region — a
/// compiler applying perforation would emit the strided loop directly.
struct Plan {
  Runs runs;
  std::size_t elements = 0;
};

Plan make_plan(std::size_t begin, std::size_t end, double rate,
               perf::Shape shape, std::size_t block) {
  Plan plan;
  if (rate <= 0.0) {
    plan.runs.emplace_back(begin, end);
  } else if (shape == perf::Shape::Block) {
    perf::perforate_blocks(
        begin, end, rate,
        [&](std::size_t lo, std::size_t hi) { plan.runs.emplace_back(lo, hi); },
        block);
  } else {
    perf::for_each(
        begin, end, rate,
        [&](std::size_t i) { plan.runs.emplace_back(i, i + 1); }, shape);
  }
  for (const auto& [lo, hi] : plan.runs) plan.elements += hi - lo;
  return plan;
}

/// Runs-aware dot product: wide runs go through the dispatched vector
/// kernel, unit runs stay scalar (exactly what the perforated app loops do).
double dot_runs(const double* a, const double* b, const Runs& runs) {
  double acc = 0.0;
  for (const auto& [lo, hi] : runs) {
    if (hi - lo >= 8) {
      acc += kern::dot_span(a + lo, b + lo, hi - lo);
    } else {
      for (std::size_t j = lo; j < hi; ++j) acc += a[j] * b[j];
    }
  }
  return acc;
}

double sq_dist_runs(const double* a, const double* b, const Runs& runs) {
  double acc = 0.0;
  for (const auto& [lo, hi] : runs) {
    if (hi - lo >= 8) {
      acc += kern::sq_dist_span(a + lo, b + lo, hi - lo);
    } else {
      for (std::size_t j = lo; j < hi; ++j) {
        const double d = a[j] - b[j];
        acc += d * d;
      }
    }
  }
  return acc;
}

// --- per-kernel workloads --------------------------------------------------
// Each workload preallocates its buffers once (constructor) and exposes
// sweep(plan): one pass over the data through the shipped kernels, touching
// only the plan's surviving elements.  elements(plan) is the per-sweep
// surviving element count.

/// Sobel: accurate row kernel over a 512x256 image; the perforated loop is
/// the interior column range [1, w-1) of every interior row.
struct SobelWork {
  static constexpr std::size_t kW = 512, kH = 256, kBlockCols = 32;
  sigrt::support::Image img{sigrt::support::synthetic_image(kW, kH, 42)};
  std::vector<std::uint8_t> res = std::vector<std::uint8_t>(kW * kH, 0);

  static Plan plan(double rate, perf::Shape shape) {
    return make_plan(1, kW - 1, rate, shape, kBlockCols);
  }
  static std::size_t elements(const Plan& p) { return p.elements * (kH - 2); }
  void sweep(const Plan& p) {
    for (std::size_t row = 1; row + 1 < kH; ++row) {
      for (const auto& [lo, hi] : p.runs) {
        kern::sobel_row_accurate(res.data(), img.data(), kW, row, lo, hi);
      }
    }
    g_sink = g_sink + static_cast<double>(res[kW + 1]);
  }
};

/// DCT: full 8x8 transform (all 15 bands) of every block of a 128x128
/// image.  The perforated loop is the inner x-sum of each coefficient
/// (block stride 4); ratio 1.0 runs the shipped dct_block_band kernel, the
/// perforated cells run the same math with the x-sum restricted to the
/// surviving runs via the dispatched dot kernel.
struct DctWork {
  static constexpr std::size_t kW = 128, kH = 128, kBlockCols = 4;
  sigrt::support::Image img{sigrt::support::synthetic_image(kW, kH, 43)};
  std::vector<float> coeffs = std::vector<float>(kW * kH, 0.0f);
  std::vector<double> ct = std::vector<double>(64, 0.0);
  std::vector<double> alpha = std::vector<double>(8, 0.0);
  std::vector<double> px = std::vector<double>(64, 0.0);

  DctWork() {
    constexpr double kPi = 3.14159265358979323846;
    for (std::size_t u = 0; u < 8; ++u) {
      for (std::size_t x = 0; x < 8; ++x) {
        ct[u * 8 + x] = std::cos((2.0 * static_cast<double>(x) + 1.0) *
                                 static_cast<double>(u) * kPi / 16.0);
      }
      alpha[u] = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    }
  }

  static Plan plan(double rate, perf::Shape shape) {
    return make_plan(0, 8, rate, shape, kBlockCols);
  }
  // Element == one pixel term of one coefficient's double sum: 64
  // coefficients x 8 y-terms x surviving x-terms, per 8x8 block.
  static std::size_t elements(const Plan& p) {
    return (kW / 8) * (kH / 8) * 64 * 8 * p.elements;
  }
  void sweep(const Plan& p) {
    const bool dense = p.elements == 8;
    for (std::size_t by = 0; by < kH / 8; ++by) {
      for (std::size_t bx = 0; bx < kW / 8; ++bx) {
        float* block = coeffs.data() + (by * (kW / 8) + bx) * 64;
        if (dense) {
          for (std::size_t band = 0; band < 15; ++band) {
            kern::dct_block_band(block, img.data(), kW, bx * 8, by * 8, band,
                                 ct.data(), alpha.data());
          }
        } else {
          for (std::size_t y = 0; y < 8; ++y) {
            const std::uint8_t* rowp = img.data() + (by * 8 + y) * kW + bx * 8;
            for (std::size_t x = 0; x < 8; ++x) {
              px[y * 8 + x] = static_cast<double>(rowp[x]) - 128.0;
            }
          }
          for (std::size_t v = 0; v < 8; ++v) {
            for (std::size_t u = 0; u < 8; ++u) {
              double acc = 0.0;
              for (std::size_t y = 0; y < 8; ++y) {
                acc += ct[v * 8 + y] *
                       dot_runs(px.data() + y * 8, ct.data() + u * 8, p.runs);
              }
              block[v * 8 + u] = static_cast<float>(alpha[u] * alpha[v] * acc);
            }
          }
        }
      }
    }
    g_sink = g_sink + static_cast<double>(coeffs[0]);
  }
};

/// Jacobi: row-update dot products of a 256-row slice of a 1024-unknown
/// dense system; the perforated loop is the column range of the row sum.
struct JacobiWork {
  static constexpr std::size_t kN = 1024, kRows = 256, kBlockCols = 16;
  std::vector<double> a = std::vector<double>(kRows * kN, 0.0);
  std::vector<double> x = std::vector<double>(kN, 0.0);

  JacobiWork() {
    sigrt::support::Xoshiro256 rng(44);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
  }

  static Plan plan(double rate, perf::Shape shape) {
    return make_plan(0, kN, rate, shape, kBlockCols);
  }
  static std::size_t elements(const Plan& p) { return p.elements * kRows; }
  void sweep(const Plan& p) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kRows; ++i) {
      acc += dot_runs(a.data() + i * kN, x.data(), p.runs);
    }
    g_sink = g_sink + acc;
  }
};

/// Kmeans: nearest-centroid assignment of 2048 points against 8 centroids
/// in 64 dimensions; the perforated loop is the dimension range of the
/// squared distance.  Ratio 1.0 runs the shipped nearest_centroid kernel.
struct KmeansWork {
  static constexpr std::size_t kPoints = 2048, kDims = 64, kClusters = 8,
                               kBlockDims = 8;
  std::vector<double> pts = std::vector<double>(kPoints * kDims, 0.0);
  std::vector<double> centroids = std::vector<double>(kClusters * kDims, 0.0);

  KmeansWork() {
    sigrt::support::Xoshiro256 rng(45);
    for (double& v : pts) v = rng.uniform(-8.0, 8.0);
    for (double& v : centroids) v = rng.uniform(-8.0, 8.0);
  }

  static Plan plan(double rate, perf::Shape shape) {
    return make_plan(0, kDims, rate, shape, kBlockDims);
  }
  static std::size_t elements(const Plan& p) {
    return kPoints * kClusters * p.elements;
  }
  void sweep(const Plan& p) {
    const bool dense = p.elements == kDims;
    std::size_t idx_sum = 0;
    for (std::size_t i = 0; i < kPoints; ++i) {
      const double* pt = pts.data() + i * kDims;
      if (dense) {
        idx_sum += kern::nearest_centroid(pt, centroids.data(), kClusters,
                                          kDims, kDims);
      } else {
        std::size_t best = 0;
        double best_d = sq_dist_runs(pt, centroids.data(), p.runs);
        for (std::size_t c = 1; c < kClusters; ++c) {
          const double d =
              sq_dist_runs(pt, centroids.data() + c * kDims, p.runs);
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
        idx_sum += best;
      }
    }
    g_sink = g_sink + static_cast<double>(idx_sum);
  }
};

/// Wide-image sobel for the tiled-vs-untiled A/B: the image is wide enough
/// (~2 MiB per full-width row) that the untiled row-major pass evicts row
/// y's halo before row y+1 can reuse it, while the band entry point walks
/// L2-sized column strips down the whole band (kernels.hpp).  The width is
/// deliberately NOT a power of two: a power-of-two row stride lands every
/// row of the band on the same cache sets and associativity-thrashes both
/// traversals, measuring aliasing instead of tiling.  Output is
/// byte-identical on both sides.
struct WideSobelWork {
  static constexpr std::size_t kW = (std::size_t{1} << 21) + 192, kH = 6;
  sigrt::support::Image img{sigrt::support::synthetic_image(kW, kH, 46)};
  std::vector<std::uint8_t> res = std::vector<std::uint8_t>(kW * kH, 0);

  static std::size_t elements() { return (kW - 2) * (kH - 2); }
  void sweep_untiled() {
    for (std::size_t row = 1; row + 1 < kH; ++row) {
      kern::sobel_row_accurate(res.data(), img.data(), kW, row, 1, kW - 1);
    }
    g_sink = g_sink + static_cast<double>(res[kW + 1]);
  }
  void sweep_tiled() {
    kern::sobel_band_accurate(res.data(), img.data(), kW, 1, kH - 1);
    g_sink = g_sink + static_cast<double>(res[kW + 1]);
  }
};

// --- measurement -----------------------------------------------------------

struct Cell {
  std::string kernel, shape, ratio, impl, level;
  double ns_per_element = 0.0;
  std::size_t elements = 0;  // surviving elements per sweep
  std::size_t reps = 0;
  std::uint64_t allocs = 0;
};

/// Times `reps` sweeps, sized so the measured region lasts ~target_ns.
template <typename Work>
Cell measure(Work& work, const char* kernel, perf::Shape shape, double ratio,
             std::int64_t target_ns) {
  Cell cell;
  cell.kernel = kernel;
  cell.shape = perf::to_string(shape);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", ratio);
  cell.ratio = buf;

  const Plan plan = Work::plan(1.0 - ratio, shape);
  cell.elements = Work::elements(plan);

  // Calibrate rep count on a warm-up sweep (also pages the buffers in).
  sigrt::support::Stopwatch cal;
  cal.start();
  work.sweep(plan);
  cal.stop();
  const std::int64_t once = std::max<std::int64_t>(1, cal.elapsed_ns());
  cell.reps = static_cast<std::size_t>(
      std::clamp<std::int64_t>(target_ns / once, 3, 2000));

  const std::uint64_t allocs_before = harness::allocs();
  sigrt::support::Stopwatch sw;
  sw.start();
  for (std::size_t r = 0; r < cell.reps; ++r) work.sweep(plan);
  sw.stop();
  cell.allocs = harness::allocs() - allocs_before;
  cell.ns_per_element =
      static_cast<double>(sw.elapsed_ns()) /
      (static_cast<double>(cell.elements) * static_cast<double>(cell.reps));
  return cell;
}

/// Interleaved A/B of the wide-image sobel: untiled and tiled sweeps
/// alternate inside one measured region so machine noise lands on both
/// sides equally; each side reports its per-sweep *median* ns/element
/// (robust against a stray slow rep on either side).
std::pair<Cell, Cell> measure_wide_sobel(WideSobelWork& work,
                                         std::int64_t target_ns) {
  const auto make = [](const char* shape) {
    Cell c;
    c.kernel = "sobel_wide";
    c.shape = shape;
    c.ratio = "1.00";
    c.elements = WideSobelWork::elements();
    return c;
  };
  Cell untiled = make("untiled");
  Cell tiled = make("tiled");

  // Calibrate on one warm-up pair (also pages the buffers in).
  sigrt::support::Stopwatch cal;
  cal.start();
  work.sweep_untiled();
  work.sweep_tiled();
  cal.stop();
  const std::int64_t once = std::max<std::int64_t>(1, cal.elapsed_ns());
  const std::size_t reps = static_cast<std::size_t>(
      std::clamp<std::int64_t>(target_ns / once, 7, 300));
  untiled.reps = tiled.reps = reps;

  std::vector<double> ns_untiled, ns_tiled;
  ns_untiled.reserve(reps);
  ns_tiled.reserve(reps);
  // One sample = one sweep on a fresh stopwatch (Stopwatch accumulates
  // across start/stop pairs).
  const auto sample = [](auto fn, Cell& cell, std::vector<double>& ns) {
    const std::uint64_t a0 = harness::allocs();
    sigrt::support::Stopwatch sw;
    sw.start();
    fn();
    sw.stop();
    cell.allocs += harness::allocs() - a0;
    ns.push_back(static_cast<double>(sw.elapsed_ns()));
  };
  for (std::size_t r = 0; r < reps; ++r) {
    sample([&] { work.sweep_untiled(); }, untiled, ns_untiled);
    sample([&] { work.sweep_tiled(); }, tiled, ns_tiled);
  }

  const auto median_per_element = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const double med = v.size() % 2 == 1
                           ? v[v.size() / 2]
                           : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    return med / static_cast<double>(WideSobelWork::elements());
  };
  untiled.ns_per_element = median_per_element(ns_untiled);
  tiled.ns_per_element = median_per_element(ns_tiled);
  return {std::move(untiled), std::move(tiled)};
}

void emit(const std::vector<Cell>& cells, bool tag_impl) {
  std::printf("{\"bench\":\"micro_kernels\",\"simd_detected\":\"%s\",\"cells\":[",
              simd::to_string(simd::detected()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf("%s{\"kernel\":\"%s\",\"shape\":\"%s\",\"ratio\":\"%s\"",
                i == 0 ? "" : ",", c.kernel.c_str(), c.shape.c_str(),
                c.ratio.c_str());
    if (tag_impl) {
      std::printf(",\"impl\":\"%s\",\"level\":\"%s\"", c.impl.c_str(),
                  c.level.c_str());
    }
    std::printf(",\"ns_per_element\":%.4f,\"elements\":%zu,\"reps\":%zu,"
                "\"allocs\":%llu}",
                c.ns_per_element, c.elements, c.reps,
                static_cast<unsigned long long>(c.allocs));
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool run_scalar = true;
  bool run_simd = true;
  std::int64_t target_ns = 50'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--impl=scalar") == 0) run_simd = false;
    if (std::strcmp(argv[i], "--impl=simd") == 0) run_scalar = false;
    if (std::strcmp(argv[i], "--quick") == 0) target_ns = 8'000'000;
  }
  const bool tag_impl = run_scalar && run_simd;

  SobelWork sobel;
  DctWork dct;
  JacobiWork jacobi;
  KmeansWork kmeans;

  const double ratios[] = {1.0, 0.75, 0.5};
  const perf::Shape shapes[] = {perf::Shape::Modulo, perf::Shape::Block};
  const simd::Isa hw = simd::detected();

  std::vector<Cell> cells;
  for (const double ratio : ratios) {
    for (const perf::Shape shape : shapes) {
      // Interleave impls within each (ratio, shape) point so machine noise
      // lands on both sides of the scalar/simd comparison equally.
      for (const bool use_simd : {false, true}) {
        if (use_simd ? !run_simd : !run_scalar) continue;
        const simd::Isa level =
            simd::set_active(use_simd ? hw : simd::Isa::Scalar);
        const auto add = [&](Cell c) {
          c.impl = use_simd ? "simd" : "scalar";
          c.level = simd::to_string(level);
          cells.push_back(std::move(c));
        };
        add(measure(sobel, "sobel", shape, ratio, target_ns));
        add(measure(dct, "dct", shape, ratio, target_ns));
        add(measure(jacobi, "jacobi", shape, ratio, target_ns));
        add(measure(kmeans, "kmeans", shape, ratio, target_ns));
      }
    }
  }
  // Wide-image sobel tiled-vs-untiled gate (one ISA level — tiling is a
  // memory effect, so it rides whichever level this invocation targets).
  {
    const simd::Isa level = simd::set_active(run_simd ? hw : simd::Isa::Scalar);
    WideSobelWork wide;
    auto [untiled, tiled] = measure_wide_sobel(wide, target_ns);
    for (Cell* c : {&untiled, &tiled}) {
      c->impl = run_simd ? "simd" : "scalar";
      c->level = simd::to_string(level);
    }
    cells.push_back(std::move(untiled));
    cells.push_back(std::move(tiled));
  }
  simd::set_active(hw);

  emit(cells, tag_impl);
  return g_sink < 1e308 ? 0 : 1;  // keep the sink observable
}
