// Dependent-task throughput gate: spawn/complete cost when every task
// carries an in()/out() footprint and the dependence tracker is on the
// critical path.
//
// Five workload shapes, chosen to stress the tracker's extremes:
//
//   * chain — C independent chains, each task inout() on its chain's
//     private block: pure pipeline parallelism, one predecessor per task,
//     maximal register/complete rate per block.
//   * stencil — a G x G tile grid swept repeatedly; each task reads its
//     four halo neighbours (in) and updates its own tile (inout), the
//     jacobi/fluidanimate dependence pattern: 5-block footprints, RAW +
//     WAR + WAW edges crossing stripe boundaries.
//   * wide_read — the paper's Listing 1: every task reads one whole shared
//     array (in) and writes its own disjoint band of an output (out); one
//     writer per wave rewrites the array (the next frame).  64 KiB
//     footprints, so the cost is the tracker's per-access work.
//   * unaligned_rows — Listing 1 with 1 KiB row bands over a heap buffer
//     16 bytes past a cache-line boundary, as malloc places large blocks:
//     no row starts on a power-of-two boundary, so a tracker that rounded
//     footprints to blocks would chain every band to its neighbour (the
//     dep_edges column reads 0 when it does not).
//   * long_read — thousands of live readers of one array: 4,096 readers
//     register while the first ones hold their workers until the last is
//     spawned, so all are parked on the array's run at once; they complete
//     in whatever order the workers run them, and a closing writer waits
//     on every one.  The cost is reader add/remove on one run with
//     thousands of readers parked.
//
// Each shape runs at 1/4/8 workers, clamped to the host's CPUs.  Like
// micro_spawn, the driver counts heap allocations through the harness's
// counting operator new and warms up until a full round allocates nothing,
// so the steady-state allocs-per-task column reports the tracker's
// reset-not-free contract.  Output is one JSON line
// (BENCH_micro_deps.json in CI); any CLI arguments are accepted and
// ignored for harness compatibility.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/sigrt.hpp"
#include "harness.hpp"
#include "support/timer.hpp"

namespace {

constexpr std::size_t kCellBytes = 64;

/// One cache line per logical datum.  The tracker is byte-exact, so cells
/// never alias whatever their alignment; the alignment keeps bodies of
/// neighbouring cells off each other's lines.
struct alignas(kCellBytes) Cell {
  unsigned char bytes[kCellBytes];
};

struct DepRecord {
  const char* shape = "";
  unsigned workers = 0;
  std::uint64_t tasks = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  std::uint64_t dep_edges = 0;
  double wall_s = 0.0;
  double tasks_per_sec = 0.0;
};

// C chains built breadth-first (round-robin over chains per step) so the
// spawner keeps all chains live at once; a barrier every wave bounds the
// in-flight window.
constexpr std::size_t kChains = 32;
constexpr std::size_t kChainSteps = 64;   // tasks per chain per wave
constexpr std::size_t kChainWaves = 8;

std::uint64_t chain_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  for (std::size_t w = 0; w < kChainWaves; ++w) {
    for (std::size_t s = 0; s < kChainSteps; ++s) {
      for (std::size_t c = 0; c < kChains; ++c) {
        rt.spawn(sigrt::task([] {}).inout(&cells[c]));
      }
    }
    rt.wait_all();
  }
  return kChainWaves * kChainSteps * kChains;
}

// G x G torus stencil: sweep after sweep, each tile task reads its four
// neighbours' previous values and rewrites its own tile.
constexpr std::size_t kGrid = 16;
constexpr std::size_t kSweeps = 32;
constexpr std::size_t kSweepsPerBarrier = 8;

std::uint64_t stencil_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  auto at = [&](std::size_t y, std::size_t x) -> Cell* {
    return &cells[y * kGrid + x];
  };
  for (std::size_t s = 0; s < kSweeps; ++s) {
    for (std::size_t y = 0; y < kGrid; ++y) {
      for (std::size_t x = 0; x < kGrid; ++x) {
        rt.spawn(sigrt::task([] {})
                     .in(at((y + kGrid - 1) % kGrid, x))
                     .in(at((y + 1) % kGrid, x))
                     .in(at(y, (x + kGrid - 1) % kGrid))
                     .in(at(y, (x + 1) % kGrid))
                     .inout(at(y, x)));
      }
    }
    if ((s + 1) % kSweepsPerBarrier == 0) rt.wait_all();
  }
  rt.wait_all();
  return kSweeps * kGrid * kGrid;
}

// Listing 1: a frame writer, then one task per output band reading the
// whole frame; a barrier closes each wave.
constexpr std::size_t kWideIn = 1024;  // cells (= blocks) in the frame
constexpr std::size_t kWideBands = 64;
constexpr std::size_t kWideBand = 4;  // output cells per band
constexpr std::size_t kWideWaves = 16;

std::uint64_t wide_read_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  Cell* frame = cells.data();
  Cell* out = frame + kWideIn;
  for (std::size_t w = 0; w < kWideWaves; ++w) {
    rt.spawn(sigrt::task([] {}).out(frame, kWideIn));
    for (std::size_t b = 0; b < kWideBands; ++b) {
      rt.spawn(sigrt::task([] {})
                   .in(static_cast<const Cell*>(frame), kWideIn)
                   .out(out + b * kWideBand, kWideBand));
    }
    rt.wait_all();
  }
  return kWideWaves * (kWideBands + 1);
}

// Listing 1 at row granularity over an unaligned buffer: one task per
// 1 KiB output row reading the whole frame.
constexpr std::size_t kRowBytes = 1024;
constexpr std::size_t kRows = 256;
constexpr std::size_t kFrameBytes = kRows * kRowBytes;  // 4 tracker chunks
constexpr std::size_t kRowWaves = 8;
constexpr std::size_t kRowCells = (2 * kFrameBytes) / kCellBytes + 1;

std::uint64_t unaligned_rows_round(sigrt::Runtime& rt,
                                   std::vector<Cell>& cells) {
  auto* frame = reinterpret_cast<unsigned char*>(cells.data()) + 16;
  unsigned char* out = frame + kFrameBytes;
  for (std::size_t w = 0; w < kRowWaves; ++w) {
    for (std::size_t y = 0; y < kRows; ++y) {
      rt.spawn(sigrt::task([] {})
                   .in(static_cast<const unsigned char*>(frame), kFrameBytes)
                   .out(out + y * kRowBytes, kRowBytes));
    }
    rt.wait_all();
  }
  return kRowWaves * kRows;
}

// Readers hold their workers until the wave's last reader is spawned, so
// every reader of the wave is parked on the array's run at once; a closing
// writer waits on every one.
constexpr std::size_t kLongCells = 1024;  // 64 KiB array
constexpr std::size_t kLongReaders = 4096;
constexpr std::size_t kLongWaves = 4;

std::uint64_t long_read_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  const Cell* array = cells.data();
  std::atomic<bool> spawned{false};
  for (std::size_t w = 0; w < kLongWaves; ++w) {
    spawned.store(false, std::memory_order_relaxed);
    for (std::size_t r = 0; r < kLongReaders; ++r) {
      rt.spawn(sigrt::task([&spawned] {
                 while (!spawned.load(std::memory_order_acquire)) {
                   std::this_thread::yield();
                 }
               }).in(array, kLongCells));
    }
    spawned.store(true, std::memory_order_release);
    rt.spawn(sigrt::task([] {}).out(cells.data(), kLongCells));
    rt.wait_all();
  }
  return kLongWaves * (kLongReaders + 1);
}

template <typename Round>
DepRecord measure(const char* shape, unsigned workers, std::size_t cell_count,
                  Round round) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = sigrt::PolicyKind::Agnostic;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  std::vector<Cell> cells(cell_count);

  // Warm-up: populate the task pool, the tracker's stripe tables and every
  // reader/dependents buffer to the workload's high-water mark.
  harness::warm_until_steady([&] { (void)round(rt, cells); },
                             /*max_rounds=*/6);

  const std::uint64_t e0 = rt.stats().dep_edges;
  const std::uint64_t a0 = harness::allocs();
  const std::int64_t t0 = sigrt::support::now_ns();
  const std::uint64_t tasks = round(rt, cells);
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = harness::allocs();

  DepRecord r;
  r.shape = shape;
  r.workers = workers;
  r.tasks = tasks;
  r.allocs = a1 - a0;
  r.allocs_per_task = static_cast<double>(r.allocs) / static_cast<double>(tasks);
  r.dep_edges = rt.stats().dep_edges - e0;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (r.wall_s > 0) {
    r.tasks_per_sec = static_cast<double>(tasks) / r.wall_s;
  }
  return r;
}

}  // namespace

int main(int, char**) {
  std::vector<DepRecord> records;
  for (const unsigned w : harness::worker_sweep({1, 4, 8})) {
    records.push_back(measure("chain", w, kChains, chain_round));
    records.push_back(measure("stencil", w, kGrid * kGrid, stencil_round));
    records.push_back(measure("wide_read", w, kWideIn + kWideBands * kWideBand,
                              wide_read_round));
    records.push_back(
        measure("unaligned_rows", w, kRowCells, unaligned_rows_round));
    records.push_back(measure("long_read", w, kLongCells, long_read_round));
  }

  std::printf("{\"bench\":\"micro_deps\",\"block_bytes\":%zu,\"cells\":[",
              sigrt::dep::BlockTracker().block_bytes());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DepRecord& r = records[i];
    std::printf(
        "%s{\"shape\":\"%s\",\"workers\":%u,\"tasks\":%" PRIu64
        ",\"allocs\":%" PRIu64
        ",\"allocs_per_task\":%.6f,\"dep_edges\":%" PRIu64
        ",\"wall_s\":%.6f,\"tasks_per_sec\":%.1f}",
        i == 0 ? "" : ",", r.shape, r.workers, r.tasks, r.allocs,
        r.allocs_per_task, r.dep_edges, r.wall_s, r.tasks_per_sec);
  }
  std::printf("]}\n");
  return 0;
}
