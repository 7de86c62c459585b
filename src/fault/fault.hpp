// Seeded, deterministic fault injection.
//
// A FaultPlan names, per injection site, a firing probability and a site
// parameter (a duration for delays/stalls, a count for net sites).  Whether
// a given event fires is a PURE function of (plan seed, site, stream id,
// attempt) — `should_fire` derives a counter-based RNG stream from exactly
// those inputs (support::stream_rng), so the same plan replayed over the
// same ids produces the same faults no matter how the work is scheduled
// across threads.  Stream ids are stable entity identities: task ids at the
// runtime sites, connection/frame ordinals at the net sites.
//
// The injector is process-global and armed explicitly (tests arm, run,
// disarm).  Hot paths guard every hook behind `fault::armed()` — one
// relaxed atomic load — so a disarmed build keeps the 0-alloc, branch-cheap
// contract measured by the micro benches.
//
// Firing decisions are recorded into an order-independent trace (per-site
// fire counts + a commutative XOR hash over the (site, stream, attempt)
// triples), which is what the chaos suite compares across runs: same seed
// => identical trace, different seed => different trace.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace sigrt::fault {

/// Injection sites.  Runtime sites key their stream by task id; net sites
/// by connection ordinal (ConnReset) or per-connection write ordinal
/// (ConnShortWrite).
enum class Site : unsigned {
  TaskCrash,       ///< task body throws InjectedFault
  TaskDelay,       ///< sleep param_us before the body
  TaskCorrupt,     ///< silent output corruption (unreliable workers, checked tasks)
  WorkerStall,     ///< executing worker stalls param_us (watchdog fodder)
  ConnReset,       ///< abortive close (RST via SO_LINGER 0) after a frame
  ConnShortWrite,  ///< cap one send() to a single byte
};
inline constexpr unsigned kSiteCount = 6;

struct SiteConfig {
  double probability = 0.0;    ///< in [0, 1]; 0 disables the site
  std::uint32_t param_us = 0;  ///< site parameter (duration in microseconds)
};

/// The full injection schedule: one seed, one config per site.
struct FaultPlan {
  std::uint64_t seed = 0xFA017;
  SiteConfig site[kSiteCount];

  FaultPlan& with(Site s, double probability, std::uint32_t param_us = 0) {
    site[static_cast<unsigned>(s)] = {probability, param_us};
    return *this;
  }
};

/// Thrown by the TaskCrash site inside a task body.  The runtime treats it
/// like any other body exception (redo for checked accurate tasks, drop for
/// approximate tasks) but tests can distinguish it by type.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Order-independent record of everything that fired since reset_trace().
struct Trace {
  std::uint64_t fires[kSiteCount] = {};
  std::uint64_t hash = 0;  ///< commutative XOR over mixed (site, stream, attempt)

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t f : fires) n += f;
    return n;
  }
};

/// True while a plan is armed.  One relaxed load — the hot-path guard.
[[nodiscard]] bool armed() noexcept;

/// Installs `plan` and resets the trace.  Plans retired by a later arm() or
/// disarm() stay alive for the process lifetime so concurrent should_fire
/// readers never observe a freed plan (arming is a test-harness operation,
/// not a hot path).
void arm(const FaultPlan& plan);

/// Stops all injection.  Idempotent.
void disarm() noexcept;

/// Deterministically decides whether `site` fires for stream id `stream` on
/// its `attempt`-th retry (0 = first execution).  Counts the firing into
/// the trace.  Returns false when disarmed or the site's probability is 0.
[[nodiscard]] bool should_fire(Site site, std::uint64_t stream,
                               unsigned attempt = 0) noexcept;

/// The armed plan's parameter for `site` (0 when disarmed).
[[nodiscard]] std::uint32_t param_us(Site site) noexcept;

/// Snapshot of the fire counts/hash accumulated since the last arm/reset.
[[nodiscard]] Trace trace() noexcept;
void reset_trace() noexcept;

/// True while the current thread is executing a task body on which the
/// TaskCorrupt site fired.  Fault-aware kernels (test workloads) consult
/// this to write garbage — modeling silent NTC bit-flips without the
/// runtime knowing task outputs.
[[nodiscard]] bool corrupting() noexcept;

/// RAII: marks the current thread as corrupting for one body execution.
class ScopedCorrupt {
 public:
  ScopedCorrupt() noexcept;
  ~ScopedCorrupt();
  ScopedCorrupt(const ScopedCorrupt&) = delete;
  ScopedCorrupt& operator=(const ScopedCorrupt&) = delete;
};

}  // namespace sigrt::fault
