// Run options, the result every workload fills, and the JSON record.
//
// The benchmark binary prints exactly one record line on stdout: the run's
// options, host fingerprint, thread/connection counts, every end-to-end and
// per-layer metric with its unit, and the per-layer self-time table of a
// traced run.  run.py selects the metrics BENCHMARK.json names from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's Chrome trace; empty = don't write.
  std::string trace_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// Fixed open-loop arrival rate (requests/s) of wire_steady.
  double wire_rate = 0.0;
  /// Process start, for the record's setup_total_s (process start to the
  /// first timed op, every set-up repetition included).
  std::int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's per-layer self-time table.
struct SelfRow {
  std::string layer;
  double ms_per_op = 0.0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<SelfRow> self_time;
  double op_ms = 0.0;          ///< mean op latency the self-time rows split
  std::int64_t window_start_ns = 0;  ///< first timed op of the window
  std::string config_json = "{}";
  std::string extra_json = "{}";
  std::string host_json = "{}";

  /// Sets (or overwrites) a metric, keeping first-set order.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// Records a failed output check: clears `correct` and keeps the first
  /// few messages.
  void fail_check(const std::string& message);
};

/// JSON string literal for `s` (quotes, backslashes and control bytes
/// escaped).
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest-roundtrip-safe number (%.17g); non-finite values become null.
[[nodiscard]] std::string json_number(double v);

/// The record line (no trailing newline).
[[nodiscard]] std::string record_json(const RunOptions& options,
                                      const RunResult& result);

}  // namespace perfbench
