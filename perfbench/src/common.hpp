// Pieces shared by the batch and wire workloads: the canonical metric
// lists, set-up repetition, closure-size guard and process-window deltas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "host.hpp"
#include "record.hpp"
#include "stats.hpp"
#include "support/inline_fn.hpp"
#include "support/timer.hpp"

namespace perfbench {

/// Every workload entry point.
RunResult run_paper_apps(const RunOptions& options);
RunResult run_fine_tasks(const RunOptions& options);
RunResult run_wire(const RunOptions& options);

/// Task closures must fit InlineFn's inline buffer so that neither the
/// plain nor the traced variant allocates per spawn.
template <class F>
[[nodiscard]] constexpr F&& inline_body(F&& f) noexcept {
  static_assert(sizeof(std::decay_t<F>) <=
                    sigrt::support::InlineFn::kInlineBytes,
                "task closure exceeds InlineFn's inline bound");
  return std::forward<F>(f);
}

/// End-to-end figures of one run, as a user of the system sees them.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double tasks_per_s = 0.0;
  LatencySummary latency;  ///< milliseconds
  double goodput_per_s = 0.0;
  double deadline_miss_frac = 0.0;
  double accurate_frac = 0.0;
  double quality_loss = 0.0;
  const char* quality_unit = "1/dB";  ///< PSNR^-1 for images
  double ratio_error = 0.0;
  double energy_j_per_op = 0.0;
  double failed_frac = 0.0;
};

/// Writes the end-to-end metrics, in their canonical order and units.
void put_end_to_end(RunResult& r, const EndToEnd& e);

/// Pre-sets every per-layer metric to 0 so each workload reports the full
/// list; a layer a workload bypasses keeps its 0.
void init_layer_metrics(RunResult& r);

/// Process counters over a measured window: CPU time and context switches
/// per op, and the peak resident set so far.
struct ProcWindow {
  ProcSample start = proc_sample();

  void put(RunResult& r, std::uint64_t ops) const {
    const ProcSample end = proc_sample();
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    r.set("proc.ctx_switches_per_op",
          static_cast<double>(end.ctx_switches - start.ctx_switches) / n,
          "count");
    r.set("proc.cpu_s_per_op", (end.cpu_s - start.cpu_s) / n, "s");
    r.set("proc.peak_rss_mb", end.max_rss_mb, "MB");
  }
};

/// Set-up repetitions per run: setup_s is their median.
inline constexpr unsigned kSetups = 3;

/// Runs `setup` kSetups times and returns the median duration in seconds;
/// the state built by the last call is kept.
double repeat_setup(const std::function<void()>& setup);

/// Seconds since `t0_ns`.
[[nodiscard]] inline double since_s(std::int64_t t0_ns) noexcept {
  return static_cast<double>(sigrt::support::now_ns() - t0_ns) * 1e-9;
}

/// "{\"workers\":..,\"generator_threads\":..,...}" with the oversubscribe
/// flag: busy threads (workers + serve/net threads + generator threads)
/// above the CPUs the cell runs on (`cpus`; 0 = nproc).
[[nodiscard]] std::string config_json(unsigned workers, unsigned serve_threads,
                                      unsigned generator_threads,
                                      unsigned connections,
                                      const std::string& extra = "",
                                      unsigned cpus = 0);

}  // namespace perfbench
