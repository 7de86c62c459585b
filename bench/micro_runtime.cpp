// Scheduler throughput record: spawn+execute of empty-body tasks across
// worker threads with stealing enabled, printed as one JSON line (tasks/sec
// and steals/sec) so successive changes can track the scheduler's perf
// trajectory in BENCH_*.json.  Runs 8 workers, clamped to the host's CPUs
// (the record names the count used).  Command-line arguments are ignored.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "core/sigrt.hpp"
#include "support/timer.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

// Steady-state scheduler throughput: spawn+execute `tasks` empty-body tasks
// across `workers` workers with stealing enabled, timed wall-to-wall.  This
// is the quantity the lock-free scheduler work optimizes for.
struct ThroughputRecord {
  double tasks_per_sec = 0.0;
  double steals_per_sec = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  double wall_s = 0.0;
};

ThroughputRecord measure_throughput(unsigned workers, std::uint64_t tasks) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = PolicyKind::LQH;
  c.record_task_log = false;
  Runtime rt(c);
  const auto g = rt.create_group("throughput", 0.5);
  const std::int64_t t0 = sigrt::support::now_ns();
  for (std::uint64_t i = 0; i < tasks; ++i) {
    rt.spawn(sigrt::task([] {})
                 .approx([] {})
                 .significance(static_cast<double>(i % 9 + 1) / 10.0)
                 .group(g));
  }
  rt.wait_group(g);
  const std::int64_t t1 = sigrt::support::now_ns();

  ThroughputRecord r;
  r.tasks = tasks;
  r.steals = rt.stats().steals;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (r.wall_s > 0) {
    r.tasks_per_sec = static_cast<double>(r.tasks) / r.wall_s;
    r.steals_per_sec = static_cast<double>(r.steals) / r.wall_s;
  }
  return r;
}

}  // namespace

int main(int, char**) {
  constexpr unsigned kWorkers = 8;
  constexpr std::uint64_t kTasks = 200000;
  // More workers than CPUs only measures the oversubscription.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(kWorkers, cpus);
  const ThroughputRecord r = measure_throughput(workers, kTasks);
  std::printf(
      "{\"bench\":\"micro_runtime\",\"cpus\":%u,\"workers\":%u,\"tasks\":%" PRIu64
      ",\"wall_s\":%.6f,\"tasks_per_sec\":%.1f,\"steals\":%" PRIu64
      ",\"steals_per_sec\":%.1f}\n",
      cpus, workers, r.tasks, r.wall_s, r.tasks_per_sec, r.steals,
      r.steals_per_sec);
  return 0;
}
