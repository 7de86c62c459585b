// Zero-allocation spawn record and the scheduler's throughput record:
// counts heap allocations per task through the harness's counting
// operator new and times the spawn hot path and the whole round.
//
// The pooled intrusive task lifecycle promises that, once the slab pool and
// the scheduler's buffers are warm, spawning and completing a task with
// bodies whose captures fit InlineFn's 64-byte SBO performs ZERO heap
// allocations: the Task comes from a recycled slab slot, the bodies live
// inline in that slot, and every scratch buffer on the release/complete
// paths is thread-local and capacity-stable.  This driver measures exactly
// that, steady-state, after warm-up rounds identical to the measured round:
//
//   allocs_per_task = (operator-new calls during round) / tasks
//   ns_per_spawn    = master-side cost of Runtime::spawn alone
//   tasks_per_sec   = spawn+execute throughput of the round, stealing on
//   steals_per_sec  = steals during the round over its wall time
//
// Runs 8 workers, clamped to the host's CPUs (the record names the count
// used), 200k tasks under LQH at group ratio 0.5.  Output is one JSON line
// that CI uploads as BENCH_micro_spawn.json; command-line arguments are
// ignored.
#include <cinttypes>
#include <cstdio>

#include "core/sigrt.hpp"
#include "harness.hpp"
#include "support/timer.hpp"

namespace {

struct SpawnRecord {
  std::uint64_t tasks = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  double ns_per_spawn = 0.0;
  double wall_s = 0.0;
  double tasks_per_sec = 0.0;
  std::uint64_t steals = 0;
  double steals_per_sec = 0.0;
};

SpawnRecord measure(unsigned workers, std::uint64_t tasks) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = sigrt::PolicyKind::LQH;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  const auto g = rt.create_group("spawn", 0.5);

  // Bodies capture 16 bytes — comfortably inside the 64-byte SBO contract
  // this record measures.
  auto spawn_round = [&rt, g](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t tag = i;
      rt.spawn(sigrt::task([tag] { (void)tag; })
                   .approx([tag] { (void)tag; })
                   .significance(static_cast<double>(i % 9 + 1) / 10.0)
                   .group(g));
    }
  };

  // Warm-up: populate the slab pool to the workload's high-water mark,
  // size the deques/inboxes, and build the LQH histories.  The in-flight
  // peak depends on spawn/execute interleaving, so warm at 1.5x the
  // measured pressure.
  harness::warm_until_steady(
      [&] {
        spawn_round(tasks + tasks / 2);
        rt.wait_group(g);
      },
      /*max_rounds=*/8);

  const std::uint64_t steals0 = rt.stats().steals;
  const std::uint64_t a0 = harness::allocs();
  const std::int64_t t0 = sigrt::support::now_ns();
  spawn_round(tasks);
  const std::int64_t t_spawned = sigrt::support::now_ns();
  rt.wait_group(g);
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = harness::allocs();

  SpawnRecord r;
  r.tasks = tasks;
  r.allocs = a1 - a0;
  r.allocs_per_task =
      static_cast<double>(r.allocs) / static_cast<double>(tasks);
  r.ns_per_spawn =
      static_cast<double>(t_spawned - t0) / static_cast<double>(tasks);
  r.steals = rt.stats().steals - steals0;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (r.wall_s > 0) {
    r.tasks_per_sec = static_cast<double>(tasks) / r.wall_s;
    r.steals_per_sec = static_cast<double>(r.steals) / r.wall_s;
  }
  return r;
}

}  // namespace

int main(int, char**) {
  constexpr std::uint64_t kTasks = 200000;
  const unsigned workers = harness::worker_sweep({8}).front();
  const SpawnRecord r = measure(workers, kTasks);
  std::printf(
      "{\"bench\":\"micro_spawn\",\"cpus\":%u,\"workers\":%u,\"tasks\":%" PRIu64
      ",\"allocs\":%" PRIu64
      ",\"allocs_per_task\":%.6f,\"ns_per_spawn\":%.1f,\"wall_s\":%.6f,"
      "\"tasks_per_sec\":%.1f,\"steals\":%" PRIu64 ",\"steals_per_sec\":%.1f}\n",
      harness::cpus(), workers, r.tasks, r.allocs, r.allocs_per_task,
      r.ns_per_spawn, r.wall_s, r.tasks_per_sec, r.steals, r.steals_per_sec);
  return 0;
}
