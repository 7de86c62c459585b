// Request vocabulary of the serving layer.
//
// A RequestClass binds a request type (a sobel job, a dct job, ...) to one
// runtime task group, a latency deadline and a quality floor; the Server
// keeps one QosController per class closing the loop between observed load
// and the group's ratio() knob.  Requests are significance-carrying jobs:
// the accurate body is the full-quality response, the optional approximate
// body the degraded one (absent => a "drop"-style class that answers with
// an empty/partial result when degraded, like DCT truncating bands).
//
// Requests additionally carry a *tenant*: admission is per-tenant x
// per-class, so one tenant's overload sheds its own Degradable/BestEffort
// traffic before another tenant's Critical class feels anything (see
// Server::submit), and a *deadline*: within a class the dispatcher issues
// admitted requests in earliest-deadline-first order, so the p99 the
// QosController regulates reflects urgency, not arrival order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/qos_controller.hpp"
#include "support/spinlock.hpp"

namespace sigrt::serve {

using ClassId = std::uint32_t;
using TenantId = std::uint32_t;

/// Tenant 0 always exists: submissions without a tenant land here.  Its
/// default quotas are effectively unbounded, so single-tenant callers see
/// exactly the per-class admission semantics.
inline constexpr TenantId kDefaultTenant = 0;

/// How a class's traffic behaves when its tenant is over its fairness
/// watermark (see TenantConfig::fair_in_flight).  Ordered by protection:
/// BestEffort sheds first, Degradable degrades, Critical is untouched up to
/// the tenant's hard quota.
enum class Criticality : std::uint8_t {
  Critical,    ///< admitted at full quality while the tenant is under quota
  Degradable,  ///< served through the approximate body when over the share
  BestEffort,  ///< shed outright when over the share
};

[[nodiscard]] constexpr const char* to_string(Criticality c) noexcept {
  switch (c) {
    case Criticality::Critical: return "critical";
    case Criticality::Degradable: return "degradable";
    case Criticality::BestEffort: return "besteffort";
  }
  return "?";
}

/// Static configuration of one request class.
struct RequestClassConfig {
  std::string name;

  /// Deadline, AIMD gains and backlog watermarks of the class controller.
  QosOptions qos;

  /// How this class's traffic yields when its *tenant* is over the fairness
  /// watermark.  Class-level watermarks below apply regardless.
  Criticality criticality = Criticality::Degradable;

  /// Admission bound: submissions while `max_in_flight` requests of this
  /// class are admitted-but-uncompleted are shed (rung 3 of the ladder).
  std::size_t max_in_flight = 1024;

  /// Degrade watermark: submissions above this in-flight depth are admitted
  /// but served through the approximate body regardless of classification.
  /// 0 disables the watermark.
  std::size_t degrade_in_flight = 0;

  /// Declare that this class's bodies may block on external I/O (backend
  /// calls, disk).  The server then opens a Runtime BlockingSection around
  /// each body: the worker slot is handed to a spare thread for the
  /// blocking span, so one stalled request no longer idles a core.  Leave
  /// false for pure-compute classes — the handoff costs a mutex hop per
  /// request.
  bool may_block = false;

  /// Shed admitted requests at EDF pop time when their absolute deadline
  /// has already passed (the answer would be useless to the client): the
  /// request is never spawned, `on_expire` — falling back to `on_drop` —
  /// answers, and the class `expired` counter grows.  Opt-in because
  /// classes whose clients still want late answers (batch work, tests
  /// asserting exact served counts) must keep serving them.
  bool shed_expired = false;

  /// Per-request watchdog budget: an issued request still unresolved this
  /// many nanoseconds after dispatch is force-completed as a drop (its
  /// `on_timeout` — falling back to `on_drop` — answers the client) so a
  /// stuck or faulted body can never leak an in-flight slot.  The sweep
  /// rides the QoS controller tick, so it requires ServerOptions::epoch_ms
  /// > 0; granularity is one epoch.  0 disables the watchdog.
  std::int64_t watchdog_ns = 0;
};

/// Static configuration of one tenant.  Quotas count the tenant's in-flight
/// requests across every class, so a tenant flooding one class consumes its
/// own budget, not the budget of the others.  Isolation is complete when
/// the sum of tenant hard quotas stays within each class's max_in_flight
/// (then the shared class bound never binds for a compliant tenant).
struct TenantConfig {
  std::string name;

  /// Hard quota: submissions while this many of the tenant's requests are
  /// in flight are shed, whatever the class's criticality.
  std::size_t max_in_flight = static_cast<std::size_t>(1) << 40;

  /// Fairness watermark (soft share).  Above it the tenant's BestEffort
  /// submissions are shed and its Degradable submissions are admitted
  /// degraded; Critical traffic is untouched until the hard quota.
  /// 0 disables the watermark.
  std::size_t fair_in_flight = 0;
};

/// One unit of client work.  Exactly one of the two bodies runs per request
/// — unless the request is dropped without running any body (dispatcher
/// perforation, or shutdown racing the submit), in which case `on_drop`
/// fires instead.
struct Job {
  std::function<void()> accurate;     ///< required: full-quality response
  std::function<void()> approximate;  ///< optional: degraded response

  /// Paper semantics apply at request granularity: 1.0 pins the request
  /// accurate, <= 0.0 pins it approximate.  The default sits mid-scale so
  /// requests are degradable out of the box.
  double significance = 0.5;

  /// Fires (on the dispatcher thread — keep it cheap and non-blocking) when
  /// an *admitted* request is dropped without a body running: perforation
  /// rung 2, or a shutdown shed.  Network frontends use it to answer the
  /// client instead of leaving the connection hanging.  Optional.
  std::function<void()> on_drop;

  /// Fires (on a dispatcher thread) when the request is shed at EDF pop
  /// time because its deadline already passed — it was never spawned.
  /// Falls back to `on_drop` when absent.  Network frontends answer
  /// Status::Expired here.  Optional.
  std::function<void()> on_expire;

  /// Fires (on the controller thread) when the class watchdog force-drops
  /// a request whose body is stuck or faulted past watchdog_ns.  The body
  /// may still be running: the callback must only touch state it owns
  /// exclusively (network frontends reply through a fresh response shell).
  /// Falls back to `on_drop` when absent.  Optional.
  std::function<void()> on_timeout;

  /// Relative latency budget in nanoseconds; the request's absolute EDF
  /// deadline is arrival + budget.  0 uses the class's QoS deadline, which
  /// preserves FIFO order among budget-less requests of one class.
  std::int64_t deadline_ns = 0;
};

/// Admission verdict returned by Server::submit.
enum class Admission : std::uint8_t {
  Admitted,  ///< queued for full-quality service
  Degraded,  ///< queued, but will be served through the approximate body
  Shed,      ///< rejected: a quota was exceeded (or the server closed)
};

[[nodiscard]] constexpr const char* to_string(Admission a) noexcept {
  switch (a) {
    case Admission::Admitted: return "admitted";
    case Admission::Degraded: return "degraded";
    case Admission::Shed: return "shed";
  }
  return "?";
}

/// Internal queue node: one submitted request in flight between admission
/// and completion.  Owned by whoever holds the raw pointer; linked through
/// `next` while inside the MPSC staging queue or the server's free pool.
struct Request {
  Job job;
  ClassId cls = 0;
  TenantId tenant = kDefaultTenant;
  std::int64_t arrival_ns = 0;
  std::int64_t deadline_ns = 0;  ///< absolute: arrival + budget (EDF key)
  std::int64_t issue_ns = 0;     ///< dispatch time (watchdog epoch base)
  bool degraded = false;
  /// Staging queue or free pool link; while the request is issued, the
  /// watchdog sweep's overdue chain.
  Request* next = nullptr;

  // --- ownership protocol -------------------------------------------------
  // Admission holds one reference; at dispatch it is adopted by the spawned
  // task's callables (Server::dispatch's BodyRef, one count per stored
  // copy), so it drops at slab retirement even when an injected fault
  // unwinds the task before the serve wrapper ever runs.  A
  // watchdog-covered request gains a second, independently-dropped owner:
  // the class watchdog registry.  Whichever side wins `resolved` performs
  // the accounting; the node returns to the pool only when `owners`
  // reaches zero, so the controller sweep can never free a request whose
  // body is still running.
  std::atomic<bool> resolved{false};
  std::atomic<int> owners{0};
  Request* wd_next = nullptr;  ///< class watchdog registry (wd_lock)
  Request* wd_prev = nullptr;  ///< class watchdog registry (wd_lock)
};

/// Free pool of Request nodes: acquire on submit, release on completion.
/// A spinlocked Treiber chain — both sections are a few instructions, and
/// at serving rates (tens of thousands of requests/s) the lock is
/// uncontended.  Pooling removes the per-request new/delete pair from the
/// admission/dispatch hot path; a released node keeps its Job storage
/// cleared (captures must not outlive the request) but the node itself is
/// reused, so steady-state traffic allocates nothing here.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  // Teardown is exclusive (shutdown contract: outstanding() == 0 and no
  // concurrent acquire/release), so the freelist walk takes no lock.
  ~RequestPool() SIGRT_NO_THREAD_SAFETY_ANALYSIS {
    Request* r = free_;
    while (r != nullptr) {
      Request* next = r->next;
      delete r;
      r = next;
    }
  }

  [[nodiscard]] SIGRT_HOT_PATH Request* acquire() {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    {
      support::SpinLockGuard lock(lock_);
      if (Request* r = free_) {
        free_ = r->next;
        r->next = nullptr;
        return r;
      }
    }
    // Pool-miss growth path: the steady state never reaches it.
    return new Request;  // NOLINT(sigrt-hotpath-alloc)
  }

  SIGRT_HOT_PATH void release(Request* r) noexcept {
    r->job = Job{};  // run captured destructors now, not at pool teardown
    {
      support::SpinLockGuard lock(lock_);
      r->next = free_;
      free_ = r;
    }
    // Release-ordered and strictly after the node is back on the chain: a
    // shutdown thread that observes zero outstanding (acquire) therefore
    // sees every node linked and every release fully done — the destructor
    // walk can never race a straggler.
    outstanding_.fetch_sub(1, std::memory_order_release);
  }

  /// Nodes acquired and not yet released.  The serve tier's in_flight
  /// counters hit zero at complete(); the final ownership drop happens
  /// later, at task-slab retirement on a worker thread (see BodyRef in
  /// Server::dispatch), so shutdown must wait on THIS count before the
  /// pool can be torn down.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_acquire);
  }

 private:
  support::SpinLock lock_;
  Request* free_ SIGRT_GUARDED_BY(lock_) = nullptr;
  std::atomic<std::size_t> outstanding_{0};
};

/// The outcome counters every report carries.  The server keeps them once,
/// per (tenant, class) cell; a ClassReport sums its class's cells.
struct OutcomeCounts {
  std::uint64_t submitted = 0;  ///< admitted (including degraded)
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t perforated = 0;
  /// Admitted requests shed at EDF pop time because their deadline had
  /// already passed (never spawned; on_expire fired).
  std::uint64_t expired = 0;
  /// Requests force-dropped by the class watchdog (stuck/faulted bodies);
  /// also counted into served_dropped so conservation holds.
  std::uint64_t timed_out = 0;
  std::uint64_t served_accurate = 0;
  std::uint64_t served_approximate = 0;
  std::uint64_t served_dropped = 0;  ///< degraded with no approximate body

  [[nodiscard]] std::uint64_t served() const noexcept {
    return served_accurate + served_approximate + served_dropped;
  }

  OutcomeCounts& operator+=(const OutcomeCounts& o) noexcept {
    submitted += o.submitted;
    shed += o.shed;
    degraded += o.degraded;
    perforated += o.perforated;
    expired += o.expired;
    timed_out += o.timed_out;
    served_accurate += o.served_accurate;
    served_approximate += o.served_approximate;
    served_dropped += o.served_dropped;
    return *this;
  }
};

/// Per-class counters and latency digest, safe to snapshot from any thread.
struct ClassReport : OutcomeCounts {
  std::string name;
  Criticality criticality = Criticality::Degradable;
  double deadline_ms = 0.0;
  double ratio = 1.0;        ///< current group ratio() knob
  double perforation = 0.0;  ///< current dispatcher perforation level
  std::size_t in_flight = 0;

  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  /// Fraction of served requests that got the full-quality body.
  [[nodiscard]] double achieved_ratio() const noexcept {
    const std::uint64_t total = served();
    return total == 0
               ? 1.0
               : static_cast<double>(served_accurate) / static_cast<double>(total);
  }
};

/// One (tenant, class) accounting cell.
struct TenantClassCell : OutcomeCounts {
  ClassId cls = 0;
  std::string class_name;
  std::size_t in_flight = 0;
};

/// Per-tenant counters: the total plus one cell per registered class.
struct TenantReport {
  TenantId id = kDefaultTenant;
  std::string name;
  std::size_t in_flight = 0;
  std::size_t max_in_flight = 0;
  std::size_t fair_in_flight = 0;
  std::vector<TenantClassCell> cells;

  [[nodiscard]] std::uint64_t submitted() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : cells) n += c.submitted;
    return n;
  }
  [[nodiscard]] std::uint64_t shed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : cells) n += c.shed;
    return n;
  }
};

struct ServerStats {
  std::vector<ClassReport> classes;
  std::vector<TenantReport> tenants;

  [[nodiscard]] std::uint64_t total_submitted() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.submitted;
    return n;
  }
  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.shed;
    return n;
  }
  [[nodiscard]] std::uint64_t total_served() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.served();
    return n;
  }
};

}  // namespace sigrt::serve
