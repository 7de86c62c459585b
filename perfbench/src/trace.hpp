// Span recorder for the traced run.
//
// Spans are taken from the benchmark's own code around each call it makes
// into a layer's public functions (Runtime::spawn, Runtime::wait_*, the
// apps kernels, net::Client I/O, the wire kernel handler).  Nothing inside
// src/ is instrumented.
//
// Storage is one array preallocated by enable(); recording is a single
// fetch_add on the slot index plus a store, and spans past the capacity are
// counted as dropped instead of growing the array, so tracing adds no heap
// allocation on any thread.  Self time is maintained on a thread-local
// stack: a span's self time is its duration minus the durations of the
// spans that closed inside it on the same thread.
//
// When tracing is disabled a Scope costs one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/timer.hpp"

namespace perfbench::trace {

/// Span kinds, named "<layer>.<call>" in the Chrome trace.
enum class Kind : std::uint8_t {
  CoreSpawn,       ///< Runtime::spawn
  CoreWait,        ///< Runtime::wait_all / wait_group
  AppsBodyAcc,     ///< accurate task body (apps::kern call or task work)
  AppsBodyApprox,  ///< approximate task body
  AppsSerial,      ///< apps::<app>::reference (serial single-thread run)
  NetSend,         ///< net::Client::enqueue + flush
  NetRecv,         ///< net::Client::read_response
  WireKernel,      ///< wire kernel handler body (on a runtime worker)
  BenchCheck,      ///< output verification
  kCount,
};

[[nodiscard]] const char* name(Kind k) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t tid = 0;
  Kind kind = Kind::CoreSpawn;
};

/// Preallocates room for `capacity` spans and turns recording on.
void enable(std::size_t capacity);
void disable() noexcept;

[[nodiscard]] bool enabled() noexcept;

/// Small dense id of the calling thread (assigned on first use).
[[nodiscard]] std::uint32_t thread_id() noexcept;

/// Opens a span on the calling thread's stack; returns its start time.
std::int64_t begin() noexcept;
/// Closes the innermost open span and records it.  Returns the end time.
std::int64_t end(Kind kind, std::int64_t start_ns) noexcept;

/// Records a span that encloses no other span, without touching the
/// thread's open-span stack (for calls that may throw mid-span).
void record_leaf(Kind kind, std::int64_t start_ns, std::int64_t end_ns) noexcept;

/// RAII span: records only when tracing was enabled at construction.
class Scope {
 public:
  explicit Scope(Kind kind) noexcept
      : kind_(kind), on_(enabled()), start_(on_ ? begin() : 0) {}
  ~Scope() {
    if (on_) end(kind_, start_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Kind kind_;
  bool on_;
  std::int64_t start_;
};

struct KindTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline constexpr std::uint32_t kAnyThread = ~0u;

/// Per-kind totals over the recorded spans of thread `tid` (all threads
/// for kAnyThread).
[[nodiscard]] std::array<KindTotals, static_cast<std::size_t>(Kind::kCount)>
totals(std::uint32_t tid = kAnyThread);

[[nodiscard]] std::uint64_t recorded() noexcept;
[[nodiscard]] std::uint64_t dropped() noexcept;

/// Durations (µs) of every recorded span of `kind`, in recording order.
[[nodiscard]] std::vector<double> durations_us(Kind kind);

/// Writes the first `max_spans` recorded spans as Chrome trace JSON
/// ("X" complete events, microsecond timestamps relative to `origin_ns`).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, std::int64_t origin_ns,
                        std::size_t max_spans);

}  // namespace perfbench::trace
