// Batch workloads.
//
// paper_apps: one op is a Sobel job followed by a DCT job on the same
// seeded 1024x1024 image, at the Medium degree under GTB.  The benchmark
// owns the Listing-1 spawn loops (the apps' own task shapes, footprints,
// significances and group ratio()), so every Runtime::spawn and every body
// can be timed from here.  GTB classifies deterministically, so every job
// must reproduce the warm-up job's classification exactly.
//
// fine_tasks: one op is a round of ~1.7k tiny tasks under LQH at ratio 0.5,
// ended by a top-level barrier: a nested fib with in-task wait_all, a
// significance-tagged fan-out, and a row stencil with small footprints.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/common.hpp"
#include "apps/dct.hpp"
#include "apps/kernels.hpp"
#include "apps/sobel.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "energy/meter.hpp"
#include "metrics/quality.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using sigrt::GroupId;
using sigrt::GroupReport;
using sigrt::Runtime;
using sigrt::support::now_ns;
using trace::Kind;

/// Blocks of `bytes` at `p` under the tracker's block size.
std::size_t blocks_of(const void* p, std::size_t bytes, std::size_t block) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  return (a + bytes - 1) / block - a / block + 1;
}

/// Per-task timestamps of a traced op: spawn return, body start, body end.
/// Each slot is written by one thread and read after the op's barrier.
struct TaskTimes {
  std::vector<std::int64_t> ret, start, end;

  explicit TaskTimes(std::size_t n) : ret(n, 0), start(n, 0), end(n, 0) {}
  void clear() {
    std::fill(ret.begin(), ret.end(), 0);
    std::fill(start.begin(), start.end(), 0);
    std::fill(end.begin(), end.end(), 0);
  }
  [[nodiscard]] std::int64_t last_end() const {
    return *std::max_element(end.begin(), end.end());
  }
  /// Spawn-return to body-start delays (µs) of the tasks that have both.
  void start_waits_us(std::vector<double>& out) const {
    for (std::size_t i = 0; i < ret.size(); ++i) {
      if (ret[i] != 0 && start[i] != 0) {
        out.push_back(static_cast<double>(start[i] - ret[i]) * 1e-3);
      }
    }
  }
};

/// Records a body span and the task's start/end stamps when `times` is
/// set; otherwise just runs `work`.
template <class Work>
void timed_body(TaskTimes* times, std::size_t slot, Kind kind, Work&& work) {
  if (times == nullptr) {
    work();
    return;
  }
  const std::int64_t t0 = trace::begin();
  work();
  const std::int64_t t1 = trace::end(kind, t0);
  times->start[slot] = t0;
  times->end[slot] = t1;
}

/// Runs one spawn call under a core.spawn span when tracing the op, and
/// stamps the spawn-return time of task `slot`.
template <class Spawn>
void timed_spawn(TaskTimes* times, std::size_t slot, Spawn&& spawn) {
  if (times == nullptr) {
    spawn();
    return;
  }
  const std::int64_t t0 = trace::begin();
  spawn();
  times->ret[slot] = trace::end(Kind::CoreSpawn, t0);
}

/// Runs `fn` under a span of `kind` when `traced`.
template <class Fn>
void in_span(bool traced, Kind kind, Fn&& fn) {
  if (!traced) {
    fn();
    return;
  }
  const trace::Scope s(kind);
  fn();
}

/// Cumulative runtime/tracker counters, diffed around the measured window.
struct RuntimeCounters {
  sigrt::RuntimeStats rt;
  sigrt::dep::TrackerStats dep;

  static RuntimeCounters of(const Runtime& r) {
    return {r.stats(), r.tracker().stats()};
  }
};

/// Figures every batch op reports.
struct OpSample {
  double ms = 0.0;
  bool traced = false;
};

/// Shared tail of both batch workloads: end-to-end metrics, the runtime
/// layer metrics, the self-time table and the traced-vs-untraced overhead.
struct BatchWindow {
  std::vector<OpSample> ops;
  std::uint64_t tasks = 0;
  std::uint64_t accurate = 0;
  std::uint64_t allocs = 0;
  double energy_j = 0.0;
  double op_s = 0.0;  ///< sum of op latencies
  std::vector<double> barrier_us;
  std::vector<double> start_wait_us;

  /// Completes `e` (set-up time, quality and ratio error come filled in)
  /// and writes every metric; returns the latency summary it reported.
  LatencySummary finish(RunResult& r, EndToEnd e, const RuntimeCounters& c0,
                        const RuntimeCounters& c1, unsigned workers,
                        std::uint32_t spawner_tid) const {
    std::vector<double> all;
    std::vector<double> traced;
    std::vector<double> plain;
    for (const OpSample& o : ops) {
      all.push_back(o.ms);
      (o.traced ? traced : plain).push_back(o.ms);
    }
    const double n = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
    const double ntasks = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
    e.latency = summarize_latency(all);
    e.ops_per_s = op_s > 0 ? static_cast<double>(ops.size()) / op_s : 0.0;
    e.tasks_per_s = op_s > 0 ? static_cast<double>(tasks) / op_s : 0.0;
    e.goodput_per_s =
        op_s > 0 ? static_cast<double>(ops.size() - r.failed) / op_s : 0.0;
    e.accurate_frac = static_cast<double>(accurate) / ntasks;
    e.energy_j_per_op = energy_j / n;
    if (r.attempted > 0) {
      e.failed_frac =
          static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    }
    e.deadline_miss_frac = e.failed_frac;  // batch ops carry no deadline
    put_end_to_end(r, e);

    // Group counters restart every op (reset_stats), so task counts come
    // from the window, not from RuntimeStats::spawned.
    r.set("core.steals_per_ktask",
          static_cast<double>(c1.rt.steals - c0.rt.steals) * 1000.0 / ntasks,
          "count");
    r.set("core.inline_spawn_frac",
          static_cast<double>(c1.rt.inline_spawns - c0.rt.inline_spawns) /
              ntasks,
          "frac");
    r.set("dep.edges_per_task",
          static_cast<double>(c1.dep.edges - c0.dep.edges) / ntasks, "count");
    r.set("dep.nodes",
          static_cast<double>(c1.dep.registered_nodes -
                              c0.dep.registered_nodes) / n,
          "count");
    r.set("pool.allocs_per_task", static_cast<double>(allocs) / ntasks,
          "count");
    r.set("core.barrier_us", median(barrier_us), "us");
    r.set("core.start_wait_us", median(start_wait_us), "us");

    if (!trace::enabled()) return e.latency;
    const auto spawn_us = trace::durations_us(Kind::CoreSpawn);
    r.set("core.spawn_us", median(spawn_us), "us");
    r.set("core.spawn_us_tail", percentile(spawn_us, tail_pct(spawn_us.size())),
          "us");
    const auto at = [](const auto& totals, Kind k) -> const trace::KindTotals& {
      return totals[static_cast<std::size_t>(k)];
    };
    const auto all_t = trace::totals();
    const auto own = trace::totals(spawner_tid);
    const trace::KindTotals& acc = at(all_t, Kind::AppsBodyAcc);
    const trace::KindTotals& apx = at(all_t, Kind::AppsBodyApprox);
    // Self times: a nested fib body's span would otherwise include the
    // children it waits for.
    r.set("apps.body_us_acc",
          acc.count ? acc.self_ms * 1e3 / static_cast<double>(acc.count) : 0.0,
          "us");
    r.set("apps.body_us_approx",
          apx.count ? apx.self_ms * 1e3 / static_cast<double>(apx.count) : 0.0,
          "us");
    double traced_ms = 0.0;
    for (const double v : traced) traced_ms += v;
    // Worker busy share over the traced ops: body self time plus the spawns
    // bodies make.  (RuntimeStats::busy_s converts TSC cycles at a rate it
    // recalibrates on every read, so its deltas over a window can even be
    // negative.)
    const double worker_spawn_ms =
        at(all_t, Kind::CoreSpawn).self_ms - at(own, Kind::CoreSpawn).self_ms;
    if (traced_ms > 0) {
      r.set("core.busy_frac",
            (acc.self_ms + apx.self_ms + worker_spawn_ms) / (traced_ms * workers),
            "frac");
    }

    // Self time on the spawning thread, per traced op; whatever the spans
    // do not cover is the residual (loop overhead, timestamping).
    const double nt = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    const double spawn_ms = at(own, Kind::CoreSpawn).self_ms / nt;
    const double wait_ms = at(own, Kind::CoreWait).self_ms / nt;
    r.op_ms = traced_ms / nt;
    r.self_time = {{"core.spawn", spawn_ms},
                   {"core.wait", wait_ms},
                   {"residual", r.op_ms - spawn_ms - wait_ms}};
    r.set("self.core_spawn_ms", spawn_ms, "ms");
    r.set("self.core_wait_ms", wait_ms, "ms");
    r.set("self.residual_ms", r.op_ms - spawn_ms - wait_ms, "ms");
    if (!traced.empty() && !plain.empty()) {
      r.set("trace.overhead_ms", median(traced) - median(plain), "ms");
    }
    r.set("trace.spans", static_cast<double>(trace::recorded()), "count");
    r.set("trace.dropped_spans", static_cast<double>(trace::dropped()),
          "count");
    return e.latency;
  }
};

// ---------------------------------------------------------------------------
// paper_apps

constexpr std::size_t kPaperSize = 1024;
constexpr std::size_t kDctBlock = sigrt::apps::dct::kBlock;
constexpr std::size_t kDctBands = sigrt::apps::dct::kBands;

/// The DCT's cosine and normalisation tables, built exactly as the app
/// builds them so the bodies reproduce apps::dct::reference bit for bit.
struct DctTables {
  double ct[kDctBlock * kDctBlock];
  double alpha[kDctBlock];

  DctTables() {
    constexpr double kPi = 3.14159265358979323846;
    for (std::size_t u = 0; u < kDctBlock; ++u) {
      for (std::size_t x = 0; x < kDctBlock; ++x) {
        ct[u * kDctBlock + x] =
            std::cos((2.0 * static_cast<double>(x) + 1.0) *
                     static_cast<double>(u) * kPi /
                     (2.0 * static_cast<double>(kDctBlock)));
      }
      alpha[u] = u == 0 ? std::sqrt(1.0 / static_cast<double>(kDctBlock))
                        : std::sqrt(2.0 / static_cast<double>(kDctBlock));
    }
  }
};

const DctTables& dct_tables() {
  static const DctTables t;
  return t;
}

/// What one op's bodies write to; captured by pointer so every closure
/// stays a pointer plus an index.
struct PaperCtx {
  std::uint8_t* sobel_out = nullptr;
  float* dct_out = nullptr;
  const std::uint8_t* img = nullptr;
  std::size_t w = 0;
  std::size_t band_rows = 1;
  std::uint8_t* sobel_kind = nullptr;  ///< per band: 1 accurate, 2 approximate
  std::uint8_t* dct_kind = nullptr;    ///< per (stripe, band): 1 accurate
  TaskTimes* sobel_times = nullptr;    ///< set on traced ops only
  TaskTimes* dct_times = nullptr;
};

void dct_band_body(const PaperCtx* c, std::size_t by, std::size_t band) {
  const DctTables& t = dct_tables();
  const std::size_t blocks_x = c->w / kDctBlock;
  for (std::size_t bx = 0; bx < blocks_x; ++bx) {
    float* block = c->dct_out + (by * blocks_x + bx) * kDctBlock * kDctBlock;
    sigrt::apps::kern::dct_block_band(block, c->img, c->w, bx * kDctBlock,
                                      by * kDctBlock, band, t.ct, t.alpha);
  }
  c->dct_kind[by * kDctBands + band] = 1;
}

struct PaperState {
  sigrt::support::Image input;
  sigrt::support::Image sobel_ref, sobel_approx_ref;
  std::vector<float> dct_ref;
  sigrt::support::Image sobel_out;
  std::vector<float> dct_out;
  std::vector<std::uint8_t> sobel_kind, dct_kind;
  std::vector<std::uint8_t> expect_sobel_kind, expect_dct_kind;
  std::unique_ptr<TaskTimes> sobel_times, dct_times;
  PaperCtx ctx;
  std::unique_ptr<Runtime> rt;
  GroupId g_sobel = 0, g_dct = 0;
  std::size_t sobel_tasks = 0, dct_tasks = 0;
  double serial_ms = 0.0;
  double sobel_loss = 0.0, dct_loss = 0.0;
  double ratio_error = 0.0;
  double inversion = 0.0;
  double blocks_per_spawn = 0.0;
};

struct PaperOp {
  double sobel_ms = 0.0, dct_ms = 0.0, energy_j = 0.0;
  /// Last body end to wait return, per job (traced ops only).
  double sobel_barrier_us = 0.0, dct_barrier_us = 0.0;
  std::uint64_t allocs = 0;
  GroupReport sobel, dct;
};

PaperOp paper_op(PaperState& s, bool traced) {
  PaperCtx& c = s.ctx;
  const std::size_t w = c.w;
  const std::size_t h = s.input.height();
  std::fill(s.sobel_kind.begin(), s.sobel_kind.end(), 0);
  std::fill(s.dct_kind.begin(), s.dct_kind.end(), 0);
  std::fill(s.dct_out.begin(), s.dct_out.end(), 0.0f);
  std::memset(s.sobel_out.data(), 0, s.sobel_out.size());
  c.sobel_times = traced ? s.sobel_times.get() : nullptr;
  c.dct_times = traced ? s.dct_times.get() : nullptr;
  if (traced) {
    s.sobel_times->clear();
    s.dct_times->clear();
  }
  Runtime& rt = *s.rt;
  const PaperCtx* pc = &c;

  PaperOp op;
  const std::uint64_t a0 = heap_allocs();
  const sigrt::energy::Scope energy(rt.meter());
  const std::int64_t t0 = now_ns();
  // Listing 1: one task per band of rows, whole-image in(), the band's rows
  // out(), significance cycling (i % 9 + 1) / 10.
  std::size_t task = 0;
  for (std::size_t y0 = 1; y0 + 1 < h; y0 += c.band_rows, ++task) {
    const std::size_t y1 = std::min(y0 + c.band_rows, h - 1);
    const std::size_t i = task;
    timed_spawn(c.sobel_times, i, [&] {
      rt.spawn(
          sigrt::task(inline_body([pc, y0, y1, i] {
            timed_body(pc->sobel_times, i, Kind::AppsBodyAcc, [&] {
              sigrt::apps::kern::sobel_band_accurate(pc->sobel_out, pc->img,
                                                     pc->w, y0, y1);
              pc->sobel_kind[i] = 1;
            });
          }))
              .approx(inline_body([pc, y0, y1, i] {
                timed_body(pc->sobel_times, i, Kind::AppsBodyApprox, [&] {
                  sigrt::apps::kern::sobel_band_approx(pc->sobel_out, pc->img,
                                                       pc->w, y0, y1);
                  pc->sobel_kind[i] = 2;
                });
              }))
              .significance(static_cast<double>(y0 % 9 + 1) / 10.0)
              .group(s.g_sobel)
              .in(c.img, w * h)
              .out(c.sobel_out + y0 * w, (y1 - y0) * w));
    });
  }
  in_span(traced, Kind::CoreWait, [&] { rt.wait_group(s.g_sobel); });
  const std::int64_t t1 = now_ns();
  // DCT: one task per (stripe of blocks, zig-zag band); no approxfun, so
  // an approximated band is dropped and its coefficients stay zero.
  const std::size_t blocks_y = h / kDctBlock;
  const std::size_t stripe = (w / kDctBlock) * kDctBlock * kDctBlock;
  for (std::size_t by = 0; by < blocks_y; ++by) {
    for (std::size_t band = 0; band < kDctBands; ++band) {
      const std::size_t i = by * kDctBands + band;
      timed_spawn(c.dct_times, i, [&] {
        rt.spawn(sigrt::task(inline_body([pc, by, band, i] {
                   timed_body(pc->dct_times, i, Kind::AppsBodyAcc,
                              [&] { dct_band_body(pc, by, band); });
                 }))
                     .significance(sigrt::apps::dct::band_significance(band))
                     .group(s.g_dct)
                     .in(c.img, w * h)
                     .out(c.dct_out + by * stripe, stripe));
      });
    }
  }
  in_span(traced, Kind::CoreWait, [&] { rt.wait_group(s.g_dct); });
  const std::int64_t t2 = now_ns();
  op.energy_j = energy.joules();
  op.allocs = heap_allocs() - a0;
  op.sobel_ms = static_cast<double>(t1 - t0) * 1e-6;
  op.dct_ms = static_cast<double>(t2 - t1) * 1e-6;
  if (traced) {
    op.sobel_barrier_us =
        static_cast<double>(t1 - s.sobel_times->last_end()) * 1e-3;
    op.dct_barrier_us =
        static_cast<double>(t2 - s.dct_times->last_end()) * 1e-3;
  }
  op.sobel = rt.group_report(s.g_sobel);
  op.dct = rt.group_report(s.g_dct);
  rt.group(s.g_sobel).reset_stats();
  rt.group(s.g_dct).reset_stats();
  return op;
}

/// Verifies one op: every Sobel band bit-exact with the serial accurate or
/// approximate reference (by the body that ran), every DCT band bit-exact
/// with the reference or zero (dropped), the group accounting consistent,
/// and the classification identical to the warm-up job (GTB determinism).
bool check_paper_op(const PaperState& s, const PaperOp& op, RunResult& r) {
  const trace::Scope span(Kind::BenchCheck);
  const std::size_t w = s.ctx.w;
  const std::size_t h = s.input.height();
  bool ok = true;
  const auto fail = [&](const std::string& m) {
    ok = false;
    r.fail_check(m);
  };
  std::uint64_t acc = 0, apx = 0;
  std::size_t task = 0;
  for (std::size_t y0 = 1; y0 + 1 < h; y0 += s.ctx.band_rows, ++task) {
    const std::size_t y1 = std::min(y0 + s.ctx.band_rows, h - 1);
    const std::uint8_t k = s.sobel_kind[task];
    const sigrt::support::Image* ref =
        k == 1 ? &s.sobel_ref : (k == 2 ? &s.sobel_approx_ref : nullptr);
    if (ref == nullptr) {
      fail("sobel band " + std::to_string(task) + " never ran");
      continue;
    }
    (k == 1 ? acc : apx) += 1;
    if (std::memcmp(s.sobel_out.data() + y0 * w, ref->data() + y0 * w,
                    (y1 - y0) * w) != 0) {
      fail("sobel band " + std::to_string(task) + " differs from reference");
    }
  }
  if (acc != op.sobel.accurate || apx != op.sobel.approximate ||
      op.sobel.dropped != 0 || op.sobel.spawned != s.sobel_tasks) {
    fail("sobel group accounting disagrees with the bodies that ran");
  }
  const std::size_t blocks_x = w / kDctBlock;
  const std::size_t blocks_y = h / kDctBlock;
  std::uint64_t dacc = 0;
  for (std::size_t by = 0; by < blocks_y; ++by) {
    for (std::size_t band = 0; band < kDctBands; ++band) {
      const bool ran = s.dct_kind[by * kDctBands + band] == 1;
      dacc += ran ? 1 : 0;
      for (std::size_t bx = 0; bx < blocks_x && ok; ++bx) {
        const std::size_t base = (by * blocks_x + bx) * kDctBlock * kDctBlock;
        for (std::size_t v = 0; v < kDctBlock; ++v) {
          const std::size_t u = band - v;
          if (band < v || u >= kDctBlock) continue;
          const float got = s.dct_out[base + v * kDctBlock + u];
          const float want = ran ? s.dct_ref[base + v * kDctBlock + u] : 0.0f;
          if (std::memcmp(&got, &want, sizeof got) != 0) {
            fail("dct stripe " + std::to_string(by) + " band " +
                 std::to_string(band) + " differs from reference");
            break;
          }
        }
      }
    }
  }
  if (dacc != op.dct.accurate ||
      op.dct.accurate + op.dct.dropped != s.dct_tasks ||
      op.dct.approximate != 0 || op.dct.spawned != s.dct_tasks) {
    fail("dct group accounting disagrees with the bodies that ran");
  }
  if (!s.expect_sobel_kind.empty() &&
      (s.sobel_kind != s.expect_sobel_kind || s.dct_kind != s.expect_dct_kind)) {
    fail("GTB classification differs from the warm-up job");
  }
  return ok;
}

void build_paper(PaperState& s, const RunOptions& o, unsigned workers) {
  namespace apps = sigrt::apps;
  s = PaperState{};
  s.input = sigrt::support::synthetic_image(kPaperSize, kPaperSize, o.seed);
  const std::size_t w = s.input.width();
  const std::size_t h = s.input.height();
  // Serial single-thread run of the same two jobs: the overhead baseline.
  std::vector<double> serial;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    {
      const trace::Scope span(Kind::AppsSerial);
      s.sobel_ref = apps::sobel::reference(s.input);
      s.dct_ref = apps::dct::reference(s.input);
    }
    serial.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  s.serial_ms = median(serial);
  s.sobel_approx_ref = apps::sobel::reference_approx(s.input);
  s.sobel_out = sigrt::support::Image(w, h);
  s.dct_out.assign(s.dct_ref.size(), 0.0f);

  // The app's own auto band height (sobel.cpp): one row while a full-width
  // row stays L2-resident, 8-row bands on wider images.
  s.ctx.band_rows = apps::kern::sobel_tile_cols(w, 1) >= w ? 1 : 8;
  s.sobel_tasks = (h - 2 + s.ctx.band_rows - 1) / s.ctx.band_rows;
  s.dct_tasks = (h / kDctBlock) * kDctBands;
  s.sobel_kind.assign(s.sobel_tasks, 0);
  s.dct_kind.assign(s.dct_tasks, 0);
  s.sobel_times = std::make_unique<TaskTimes>(s.sobel_tasks);
  s.dct_times = std::make_unique<TaskTimes>(s.dct_tasks);
  s.ctx.sobel_out = s.sobel_out.data();
  s.ctx.dct_out = s.dct_out.data();
  s.ctx.img = s.input.data();
  s.ctx.w = w;
  s.ctx.sobel_kind = s.sobel_kind.data();
  s.ctx.dct_kind = s.dct_kind.data();

  apps::CommonOptions common;
  common.variant = apps::Variant::GTB;
  common.degree = apps::Degree::Medium;
  common.workers = workers;
  common.seed = o.seed;
  s.rt = std::make_unique<Runtime>(apps::runtime_config_for(common));
  s.g_sobel = s.rt->create_group("sobel",
                                 apps::sobel::ratio_for(common.degree));
  s.g_dct = s.rt->create_group("dct", apps::dct::ratio_for(common.degree));

  const std::size_t block = s.rt->tracker().block_bytes();
  double blocks = 0.0;
  for (std::size_t y0 = 1; y0 + 1 < h; y0 += s.ctx.band_rows) {
    const std::size_t y1 = std::min(y0 + s.ctx.band_rows, h - 1);
    blocks += static_cast<double>(blocks_of(s.input.data(), w * h, block) +
                                  blocks_of(s.sobel_out.data() + y0 * w,
                                            (y1 - y0) * w, block));
  }
  const std::size_t stripe = (w / kDctBlock) * kDctBlock * kDctBlock;
  for (std::size_t by = 0; by < h / kDctBlock; ++by) {
    blocks += static_cast<double>(kDctBands) *
              static_cast<double>(
                  blocks_of(s.input.data(), w * h, block) +
                  blocks_of(s.dct_out.data() + by * stripe,
                            stripe * sizeof(float), block));
  }
  s.blocks_per_spawn =
      blocks / static_cast<double>(s.sobel_tasks + s.dct_tasks);

  // Warm-up job: fills the task pool and fixes the deterministic GTB
  // classification every later job must reproduce.  Its quality is the
  // run's quality: later jobs are verified bit-identical to it.
  const PaperOp warm = paper_op(s, false);
  RunResult warm_check;
  if (!check_paper_op(s, warm, warm_check)) throw std::runtime_error("paper_apps warm-up job failed its check");
  s.expect_sobel_kind = s.sobel_kind;
  s.expect_dct_kind = s.dct_kind;
  s.sobel_loss = sigrt::metrics::inverse_psnr(
      sigrt::metrics::psnr_db(s.sobel_ref, s.sobel_out));
  const auto ref_img = apps::dct::inverse(s.dct_ref, w, h);
  const auto out_img = apps::dct::inverse(s.dct_out, w, h);
  s.dct_loss = sigrt::metrics::inverse_psnr(
      sigrt::metrics::psnr_db(ref_img, out_img));
  s.ratio_error = (warm.sobel.ratio_diff() + warm.dct.ratio_diff()) / 2.0;
}

// ---------------------------------------------------------------------------
// fine_tasks

constexpr unsigned kFibN = 12;            // 465 tasks
constexpr std::size_t kFanTasks = 1024;
constexpr std::size_t kStencilRows = 32;
constexpr std::size_t kStencilCols = 256;  // one 1 KiB tracker block per row
constexpr std::size_t kStencilSweeps = 8;  // even: the result lands in grid 0
constexpr std::uint64_t kDroppedMark = ~0ull;

std::uint64_t fib_calls(unsigned n) {
  return n < 2 ? 1 : 1 + fib_calls(n - 1) + fib_calls(n - 2);
}

std::uint64_t fib_serial(unsigned n) {
  return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2);
}

/// The fan-out's work: `rounds` rounds of a splitmix step.  The approximate
/// body runs fewer rounds.
std::uint64_t mix(std::uint64_t x, unsigned rounds) {
  for (unsigned i = 0; i < rounds; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
  }
  return x;
}
constexpr unsigned kMixAccurate = 32;
constexpr unsigned kMixApprox = 4;

/// One stencil cell update; the serial reference uses the same expression.
float stencil_cell(const float* src, std::size_t y, std::size_t x) {
  const std::size_t up = y == 0 ? 0 : y - 1;
  const std::size_t down = y + 1 == kStencilRows ? y : y + 1;
  return 0.25f * src[up * kStencilCols + x] + 0.5f * src[y * kStencilCols + x] +
         0.25f * src[down * kStencilCols + x];
}

struct FineCtx {
  Runtime* rt = nullptr;
  GroupId g_fib = 0, g_fan = 0, g_sten = 0;
  const std::uint64_t* fan_in = nullptr;
  std::uint64_t* fan_out = nullptr;
  float* grid[2] = {nullptr, nullptr};
  /// Set on traced rounds: fan-out tasks [0, kFanTasks), stencil tasks
  /// after them, the fib root last.
  TaskTimes* times = nullptr;
};

void fib_body(const FineCtx* c, unsigned n, std::uint64_t* out, bool root) {
  const bool traced = c->times != nullptr;
  const auto work = [&] {
    if (n < 2) {
      *out = n;
      return;
    }
    std::uint64_t a = 0, b = 0;
    for (const auto& [m, slot] : {std::pair{n - 1, &a}, std::pair{n - 2, &b}}) {
      in_span(traced, Kind::CoreSpawn, [&, m = m, slot = slot] {
        c->rt->spawn(sigrt::task(inline_body([c, m, slot] {
                       fib_body(c, m, slot, false);
                     }))
                         .significance(1.0)
                         .group(c->g_fib));
      });
    }
    // In-task taskwait: waits for this task's children, helping meanwhile.
    in_span(traced, Kind::CoreWait, [&] { c->rt->wait_all(); });
    *out = a + b;
  };
  if (traced && root) {
    timed_body(c->times, c->times->end.size() - 1, Kind::AppsBodyAcc, work);
  } else {
    in_span(traced, Kind::AppsBodyAcc, work);
  }
}

struct FineState {
  std::unique_ptr<Runtime> rt;
  FineCtx ctx;
  std::vector<std::uint64_t> fan_in, fan_out, fan_acc, fan_apx;
  std::vector<double> fan_sig;
  std::vector<std::uint8_t> fan_has_approx;
  std::vector<float> grid0, grid1, grid_init, grid_ref;
  std::unique_ptr<TaskTimes> times;
  std::uint64_t fib_result = 0;
  std::uint64_t tasks_per_round = 0;
  double serial_ms = 0.0;
  double blocks_per_spawn = 0.0;
};

struct FineOp {
  double ms = 0.0, energy_j = 0.0, barrier_us = 0.0;
  std::uint64_t allocs = 0;
  GroupReport fib, fan, sten;
};

void serial_round(const FineState& s, std::uint64_t* fib,
                  std::vector<std::uint64_t>& fan, std::vector<float>& g0,
                  std::vector<float>& g1) {
  *fib = fib_serial(kFibN);
  for (std::size_t i = 0; i < kFanTasks; ++i) {
    fan[i] = mix(s.fan_in[i], kMixAccurate);
  }
  g0 = s.grid_init;
  float* src = g0.data();
  float* dst = g1.data();
  for (std::size_t sw = 0; sw < kStencilSweeps; ++sw) {
    for (std::size_t y = 0; y < kStencilRows; ++y) {
      for (std::size_t x = 0; x < kStencilCols; ++x) {
        dst[y * kStencilCols + x] = stencil_cell(src, y, x);
      }
    }
    std::swap(src, dst);
  }
}

FineOp fine_op(FineState& s, bool traced) {
  FineCtx& c = s.ctx;
  std::fill(s.fan_out.begin(), s.fan_out.end(), kDroppedMark);
  std::copy(s.grid_init.begin(), s.grid_init.end(), s.grid0.begin());
  c.times = traced ? s.times.get() : nullptr;
  if (traced) s.times->clear();
  s.fib_result = 0;
  Runtime& rt = *s.rt;
  const FineCtx* pc = &c;
  std::uint64_t* fib_out = &s.fib_result;

  FineOp op;
  const std::uint64_t a0 = heap_allocs();
  const sigrt::energy::Scope energy(rt.meter());
  const std::int64_t t0 = now_ns();
  const std::size_t fib_slot = kFanTasks + kStencilRows * kStencilSweeps;
  timed_spawn(c.times, fib_slot, [&] {
    rt.spawn(sigrt::task(inline_body([pc, fib_out] {
               fib_body(pc, kFibN, fib_out, true);
             }))
                 .significance(1.0)
                 .group(c.g_fib));
  });
  for (std::size_t i = 0; i < kFanTasks; ++i) {
    timed_spawn(c.times, i, [&] {
      auto b = sigrt::task(inline_body([pc, i] {
        timed_body(pc->times, i, Kind::AppsBodyAcc, [&] {
          pc->fan_out[i] = mix(pc->fan_in[i], kMixAccurate);
        });
      }));
      if (s.fan_has_approx[i] != 0) {
        b.approx(inline_body([pc, i] {
          timed_body(pc->times, i, Kind::AppsBodyApprox, [&] {
            pc->fan_out[i] = mix(pc->fan_in[i], kMixApprox);
          });
        }));
      }
      rt.spawn(std::move(b.significance(s.fan_sig[i]).group(c.g_fan)));
    });
  }
  for (std::size_t sw = 0; sw < kStencilSweeps; ++sw) {
    const float* src = c.grid[sw % 2];
    float* dst = c.grid[(sw + 1) % 2];
    for (std::size_t y = 0; y < kStencilRows; ++y) {
      const std::size_t lo = y == 0 ? 0 : y - 1;
      const std::size_t hi = y + 1 == kStencilRows ? y : y + 1;
      const std::size_t slot = kFanTasks + sw * kStencilRows + y;
      timed_spawn(c.times, slot, [&] {
        rt.spawn(sigrt::task(inline_body([pc, src, dst, y, slot] {
                   timed_body(pc->times, slot, Kind::AppsBodyAcc, [&] {
                     for (std::size_t x = 0; x < kStencilCols; ++x) {
                       dst[y * kStencilCols + x] = stencil_cell(src, y, x);
                     }
                   });
                 }))
                     .significance(1.0)
                     .group(c.g_sten)
                     .in(src + lo * kStencilCols, (hi - lo + 1) * kStencilCols)
                     .out(dst + y * kStencilCols, kStencilCols));
      });
    }
  }
  in_span(traced, Kind::CoreWait, [&] { rt.wait_all(); });
  const std::int64_t t1 = now_ns();
  op.energy_j = energy.joules();
  op.allocs = heap_allocs() - a0;
  op.ms = static_cast<double>(t1 - t0) * 1e-6;
  if (traced) {
    op.barrier_us = static_cast<double>(t1 - s.times->last_end()) * 1e-3;
  }
  op.fib = rt.group_report(c.g_fib);
  op.fan = rt.group_report(c.g_fan);
  op.sten = rt.group_report(c.g_sten);
  rt.group(c.g_fib).reset_stats();
  rt.group(c.g_fan).reset_stats();
  rt.group(c.g_sten).reset_stats();
  return op;
}

/// Verifies one round: fib and stencil equal the serial results, every
/// fan-out slot holds the accurate value, the approximate value (only for
/// tasks with an approxfun) or the untouched mark (dropped), and each
/// group's accurate + approximate + dropped equals spawned.
bool check_fine_op(const FineState& s, const FineOp& op, RunResult& r) {
  const trace::Scope span(Kind::BenchCheck);
  bool ok = true;
  const auto fail = [&](const std::string& m) {
    ok = false;
    r.fail_check(m);
  };
  if (s.fib_result != fib_serial(kFibN)) fail("fib result differs from serial");
  if (s.grid0 != s.grid_ref) fail("stencil result differs from serial");
  std::uint64_t acc = 0, apx = 0, drop = 0;
  for (std::size_t i = 0; i < kFanTasks; ++i) {
    const std::uint64_t v = s.fan_out[i];
    if (v == s.fan_acc[i]) {
      ++acc;
    } else if (s.fan_has_approx[i] != 0 && v == s.fan_apx[i]) {
      ++apx;
    } else if (s.fan_has_approx[i] == 0 && v == kDroppedMark) {
      ++drop;
    } else {
      fail("fan-out task " + std::to_string(i) + " holds a wrong value");
    }
  }
  if (acc != op.fan.accurate || apx != op.fan.approximate ||
      drop != op.fan.dropped) {
    fail("fan-out group accounting disagrees with the outputs");
  }
  for (const GroupReport* g : {&op.fib, &op.fan, &op.sten}) {
    if (g->accurate + g->approximate + g->dropped != g->spawned) {
      fail("group " + g->name + ": accurate + approximate + dropped != spawned");
    }
  }
  if (op.fib.spawned != fib_calls(kFibN) || op.fan.spawned != kFanTasks ||
      op.sten.spawned != kStencilRows * kStencilSweeps) {
    fail("spawned counts differ from the round's task count");
  }
  return ok;
}

void build_fine(FineState& s, const RunOptions& o, unsigned workers) {
  s = FineState{};
  sigrt::support::Xoshiro256 rng(o.seed);
  s.fan_in.resize(kFanTasks);
  s.fan_sig.resize(kFanTasks);
  s.fan_has_approx.resize(kFanTasks);
  s.fan_out.assign(kFanTasks, kDroppedMark);
  s.fan_acc.resize(kFanTasks);
  s.fan_apx.resize(kFanTasks);
  for (std::size_t i = 0; i < kFanTasks; ++i) {
    s.fan_in[i] = rng.next();
    s.fan_sig[i] = static_cast<double>(1 + rng.next() % 9) / 10.0;
    s.fan_has_approx[i] = static_cast<std::uint8_t>(rng.next() % 4 != 0);
    s.fan_apx[i] = mix(s.fan_in[i], kMixApprox);
  }
  s.grid_init.resize(kStencilRows * kStencilCols);
  for (float& v : s.grid_init) v = static_cast<float>(rng.uniform());
  s.grid0 = s.grid_init;
  s.grid1.assign(s.grid_init.size(), 0.0f);

  // Serial single-thread run of the round's work: the overhead baseline and
  // the reference the checks compare with.
  std::vector<double> serial;
  std::vector<float> g1(s.grid_init.size());
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t fib = 0;
    const std::int64_t t0 = now_ns();
    {
      const trace::Scope span(Kind::AppsSerial);
      serial_round(s, &fib, s.fan_acc, s.grid_ref, g1);
    }
    serial.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  s.serial_ms = median(serial);

  sigrt::RuntimeConfig rc;
  rc.workers = workers;
  rc.policy = sigrt::PolicyKind::LQH;
  // The per-task log grows with every task; this workload measures the
  // allocation-free task path, so it is off (inversion is a paper_apps
  // metric).
  rc.record_task_log = false;
  rc.seed = o.seed;
  s.rt = std::make_unique<Runtime>(rc);
  s.ctx.rt = s.rt.get();
  s.ctx.g_fib = s.rt->create_group("fib", 0.5);
  s.ctx.g_fan = s.rt->create_group("fanout", 0.5);
  s.ctx.g_sten = s.rt->create_group("stencil", 0.5);
  s.ctx.fan_in = s.fan_in.data();
  s.ctx.fan_out = s.fan_out.data();
  s.ctx.grid[0] = s.grid0.data();
  s.ctx.grid[1] = s.grid1.data();
  s.times = std::make_unique<TaskTimes>(kFanTasks + kStencilRows * kStencilSweeps + 1);
  s.tasks_per_round = fib_calls(kFibN) + kFanTasks + kStencilRows * kStencilSweeps;

  const std::size_t block = s.rt->tracker().block_bytes();
  double blocks = 0.0;
  for (std::size_t y = 0; y < kStencilRows; ++y) {
    const std::size_t lo = y == 0 ? 0 : y - 1;
    const std::size_t hi = y + 1 == kStencilRows ? y : y + 1;
    blocks += static_cast<double>(
        blocks_of(s.grid0.data() + lo * kStencilCols,
                  (hi - lo + 1) * kStencilCols * sizeof(float), block) +
        blocks_of(s.grid0.data() + y * kStencilCols,
                  kStencilCols * sizeof(float), block));
  }
  s.blocks_per_spawn = blocks * kStencilSweeps /
                       static_cast<double>(s.tasks_per_round);

  // Warm-up: repeat rounds until one allocates nothing (the task pool and
  // queues have reached the round's high-water mark), at least 64 rounds so
  // that set-up time is dominated by steady work rather than by thread
  // start-up jitter, and at most 256.
  for (int round = 0; round < 256; ++round) {
    const FineOp op = fine_op(s, false);
    RunResult warm_check;
    if (!check_fine_op(s, op, warm_check)) throw std::runtime_error("fine_tasks warm-up round failed its check");
    if (round >= 64 && op.allocs == 0) break;
  }
}

}  // namespace

RunResult run_paper_apps(const RunOptions& o) {
  RunResult r;
  init_layer_metrics(r);
  const unsigned workers = std::max(1u, nproc() - 1);
  PaperState s;
  EndToEnd e;
  e.setup_s = repeat_setup([&] { build_paper(s, o, workers); });
  e.quality_loss = (s.sobel_loss + s.dct_loss) / 2.0;
  e.ratio_error = s.ratio_error;

  BatchWindow win;
  std::vector<double> sobel_ms, dct_ms;
  double inversion_mass = 0.0;
  const std::uint32_t spawner = trace::thread_id();
  const ProcWindow proc;
  const RuntimeCounters c0 = RuntimeCounters::of(*s.rt);
  const std::int64_t start = now_ns();
  r.window_start_ns = start;
  for (std::size_t n = 0; n == 0 || since_s(start) < o.seconds; ++n) {
    // Traced runs trace every other job; the untraced ones give the
    // tracing overhead within the same run.
    const bool traced = o.trace && n % 2 == 0;
    const PaperOp op = paper_op(s, traced);
    ++r.attempted;
    if (!check_paper_op(s, op, r)) ++r.failed;
    win.ops.push_back({op.sobel_ms + op.dct_ms, traced});
    win.op_s += (op.sobel_ms + op.dct_ms) * 1e-3;
    sobel_ms.push_back(op.sobel_ms);
    dct_ms.push_back(op.dct_ms);
    win.tasks += s.sobel_tasks + s.dct_tasks;
    win.accurate += op.sobel.accurate + op.dct.accurate;
    win.allocs += op.allocs;
    win.energy_j += op.energy_j;
    inversion_mass +=
        op.sobel.inversion_fraction * static_cast<double>(s.sobel_tasks) +
        op.dct.inversion_fraction * static_cast<double>(s.dct_tasks);
    if (traced) {
      win.barrier_us.push_back(op.sobel_barrier_us);
      win.barrier_us.push_back(op.dct_barrier_us);
      s.sobel_times->start_waits_us(win.start_wait_us);
      s.dct_times->start_waits_us(win.start_wait_us);
    }
  }
  const RuntimeCounters c1 = RuntimeCounters::of(*s.rt);
  proc.put(r, win.ops.size());
  const LatencySummary lat = win.finish(r, e, c0, c1, workers, spawner);

  r.set("policy.inversion_frac",
        inversion_mass / static_cast<double>(std::max<std::uint64_t>(win.tasks, 1)),
        "frac");
  r.set("dep.blocks_per_spawn", s.blocks_per_spawn, "count");
  r.set("apps.serial_ms", s.serial_ms, "ms");
  if (const Metric* p50 = r.find("lat_p50_ms")) {
    r.set("apps.overhead_x", p50->value / s.serial_ms, "x");
  }
  char extra[512];
  std::snprintf(extra, sizeof extra,
                "{\"image\":%zu,\"degree\":\"Medium\",\"policy\":\"GTB\","
                "\"sobel_ms_p50\":%.4f,\"dct_ms_p50\":%.4f,"
                "\"sobel_quality_loss\":%.6g,\"dct_quality_loss\":%.6g,"
                "\"tail_pct\":%.2f,\"samples\":%zu,\"tail_windows\":%zu}",
                kPaperSize, median(sobel_ms), median(dct_ms), s.sobel_loss,
                s.dct_loss, lat.tail_pct, lat.samples, lat.windows);
  r.extra_json = extra;
  r.config_json = config_json(workers, 0, 0, 0);
  r.host_json = host_json(s.rt->meter().name(), o.commit, o.source_digest);
  return r;
}

RunResult run_fine_tasks(const RunOptions& o) {
  RunResult r;
  init_layer_metrics(r);
  const unsigned workers = std::max(1u, nproc() - 1);
  FineState s;
  EndToEnd e;
  e.setup_s = repeat_setup([&] { build_fine(s, o, workers); });

  BatchWindow win;
  std::uint64_t fan_acc = 0, fan_done = 0;
  double ratio_mass = 0.0;
  const std::uint32_t spawner = trace::thread_id();
  const ProcWindow proc;
  const RuntimeCounters c0 = RuntimeCounters::of(*s.rt);
  const std::int64_t start = now_ns();
  r.window_start_ns = start;
  for (std::size_t n = 0; n == 0 || since_s(start) < o.seconds; ++n) {
    // Traced runs trace one round in 64, so the span buffer covers the
    // whole window; the other rounds give the tracing overhead.
    const bool traced = o.trace && n % 64 == 0;
    const FineOp op = fine_op(s, traced);
    ++r.attempted;
    if (!check_fine_op(s, op, r)) ++r.failed;
    win.ops.push_back({op.ms, traced});
    win.op_s += op.ms * 1e-3;
    win.tasks += s.tasks_per_round;
    win.accurate += op.fib.accurate + op.fan.accurate + op.sten.accurate;
    win.allocs += op.allocs;
    win.energy_j += op.energy_j;
    fan_acc += op.fan.accurate;
    fan_done += op.fan.accurate + op.fan.approximate + op.fan.dropped;
    ratio_mass += op.fan.mean_requested_ratio;
    if (traced) {
      win.barrier_us.push_back(op.barrier_us);
      s.times->start_waits_us(win.start_wait_us);
    }
  }
  const RuntimeCounters c1 = RuntimeCounters::of(*s.rt);
  proc.put(r, win.ops.size());
  const double provided =
      static_cast<double>(fan_acc) / static_cast<double>(std::max<std::uint64_t>(fan_done, 1));
  // Quality of a round: the share of fan-out results that are not the
  // accurate value (fib and stencil are pinned accurate).
  e.quality_loss = 1.0 - provided;
  e.quality_unit = "frac";
  e.ratio_error =
      std::abs(ratio_mass / static_cast<double>(win.ops.size()) - provided);
  const LatencySummary lat = win.finish(r, e, c0, c1, workers, spawner);
  r.set("dep.blocks_per_spawn", s.blocks_per_spawn, "count");
  r.set("apps.serial_ms", s.serial_ms, "ms");
  if (const Metric* p50 = r.find("lat_p50_ms")) {
    r.set("apps.overhead_x", p50->value / s.serial_ms, "x");
  }
  char extra[512];
  std::snprintf(extra, sizeof extra,
                "{\"policy\":\"LQH\",\"ratio\":0.5,\"tasks_per_round\":%llu,"
                "\"fanout_provided_ratio\":%.6f,\"tail_pct\":%.2f,"
                "\"samples\":%zu,\"tail_windows\":%zu}",
                static_cast<unsigned long long>(s.tasks_per_round), provided,
                lat.tail_pct, lat.samples, lat.windows);
  r.extra_json = extra;
  r.config_json = config_json(workers, 0, 0, 0);
  r.host_json = host_json(s.rt->meter().name(), o.commit, o.source_digest);
  return r;
}

}  // namespace perfbench
