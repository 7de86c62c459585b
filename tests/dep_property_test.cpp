// Property test: end-to-end dependence enforcement.
//
// Random tasks draw random byte ranges (read/write/rw) over a shared arena.
// For any two tasks whose accesses conflict — some byte is named by both
// and at least one of them writes it — the later-spawned task must not
// start before the earlier one finished — the definition of the in()/out()
// contract the paper's runtime inherits from BDDT.  Verified against a
// brute-force conflict oracle over recorded start/end timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sigrt.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

struct Params {
  unsigned workers;
  std::size_t tasks;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "w" + std::to_string(p.workers) + "_n" + std::to_string(p.tasks) +
         "_s" + std::to_string(p.seed);
}

struct AccessSpec {
  std::size_t offset;
  std::size_t bytes;
  sigrt::dep::Mode mode;
};

class DepProperty : public testing::TestWithParam<Params> {};

TEST_P(DepProperty, ConflictingTasksNeverOverlapInTime) {
  const Params& p = GetParam();
  constexpr std::size_t kArena = 1 << 14;  // 16 KiB playground
  static std::vector<std::uint8_t> arena(kArena);

  sigrt::support::Xoshiro256 rng(p.seed);
  std::vector<std::vector<AccessSpec>> specs(p.tasks);
  for (auto& task_specs : specs) {
    const std::size_t n_accesses = 1 + rng.bounded(3);
    for (std::size_t a = 0; a < n_accesses; ++a) {
      AccessSpec s;
      s.offset = rng.bounded(kArena - 1);
      s.bytes = 1 + rng.bounded(kArena / 8);
      if (s.offset + s.bytes > kArena) s.bytes = kArena - s.offset;
      const auto m = rng.bounded(3);
      s.mode = m == 0 ? sigrt::dep::Mode::In
                      : (m == 1 ? sigrt::dep::Mode::Out : sigrt::dep::Mode::InOut);
      task_specs.push_back(s);
    }
  }

  std::vector<std::int64_t> start_ns(p.tasks, 0);
  std::vector<std::int64_t> end_ns(p.tasks, 0);

  RuntimeConfig c;
  c.workers = p.workers;
  c.policy = PolicyKind::Agnostic;
  {
    Runtime rt(c);
    for (std::size_t t = 0; t < p.tasks; ++t) {
      sigrt::TaskOptions opts;
      opts.accurate = [&, t] {
        start_ns[t] = sigrt::support::now_ns();
        // A little work so overlaps would actually be observable.
        volatile std::uint32_t x = 0;
        for (int i = 0; i < 2000; ++i) x += static_cast<std::uint32_t>(i);
        end_ns[t] = sigrt::support::now_ns();
      };
      for (const AccessSpec& s : specs[t]) {
        opts.accesses.push_back({arena.data() + s.offset, s.bytes, s.mode});
      }
      rt.spawn(std::move(opts));
    }
    rt.wait_all();
  }

  // Brute-force oracle: conflict == some byte is touched by both tasks
  // with at least one write.
  auto conflicts = [&](std::size_t i, std::size_t j) {
    for (const AccessSpec& a : specs[i]) {
      for (const AccessSpec& b : specs[j]) {
        if (!sigrt::dep::writes(a.mode) && !sigrt::dep::writes(b.mode)) continue;
        if (a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes) {
          return true;
        }
      }
    }
    return false;
  };

  std::size_t checked = 0;
  for (std::size_t i = 0; i < p.tasks; ++i) {
    for (std::size_t j = i + 1; j < p.tasks; ++j) {
      if (!conflicts(i, j)) continue;
      ++checked;
      EXPECT_GE(start_ns[j], end_ns[i])
          << "conflicting tasks " << i << " and " << j << " overlapped";
    }
  }
  // The generator must actually produce conflicts, or the test is vacuous.
  EXPECT_GT(checked, p.tasks / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DepProperty,
    testing::ValuesIn(std::vector<Params>{
        {0, 60, 1},
        {0, 60, 2},
        {1, 80, 3},
        {2, 80, 4},
        {4, 80, 5},
        {4, 60, 6},
        {2, 120, 7},
        {4, 120, 8},
    }),
    param_name);

// ---------------------------------------------------------------------------
// Direct tracker oracles: the striped tracker is exercised without the
// runtime so its own contracts (edge counts, refcount balance, conflict
// exclusion) can be checked exactly.

using sigrt::dep::Access;
using sigrt::dep::BlockTracker;
using sigrt::dep::Mode;
using sigrt::dep::Node;

// Node with instrumented lifetime hooks and a runtime-style gate, for
// checking the tracker's reference counts without the runtime.
class CountingNode : public Node {
 public:
  void ref_retain() noexcept override {
    retains.fetch_add(1, std::memory_order_relaxed);
  }
  void ref_release() noexcept override {
    releases.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> retains{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint32_t> gate{0};
};

// Single-threaded reference implementation of the tracker's semantics:
// one writer/readers record per byte of the arena — no runs, chunks or
// stripes.  The run-based striped tracker, driven serially, must agree
// with it exactly: same edges, same dependents, same references held.
// A completed node stays in the byte records (it links nothing, like a
// done node in the tracker), and a per-node count of the slots it still
// occupies stands in for the tracker's pins.
class ReferenceTracker {
 public:
  ReferenceTracker(const std::uint8_t* base, std::size_t bytes,
                   std::size_t nodes)
      : base_(base), bytes_(bytes), nodes_(nodes) {}

  std::size_t register_node(std::size_t id, const std::vector<Access>& accesses) {
    ++stamp_;
    std::size_t preds = 0;
    for (const Access& a : accesses) {
      if (a.ptr == nullptr || a.bytes == 0) continue;
      const auto lo = static_cast<std::size_t>(
          static_cast<const std::uint8_t*>(a.ptr) - base_);
      for (std::size_t b = lo; b < lo + a.bytes; ++b) {
        ByteState& st = bytes_[b];
        if (sigrt::dep::reads(a.mode) && link(st.writer, id)) ++preds;
        if (sigrt::dep::writes(a.mode)) {
          if (link(st.writer, id)) ++preds;
          for (std::size_t r : st.readers) {
            if (link(static_cast<std::ptrdiff_t>(r), id)) ++preds;
            vacate(r);
          }
          st.readers.clear();
          if (st.writer != static_cast<std::ptrdiff_t>(id)) {
            if (st.writer >= 0) vacate(static_cast<std::size_t>(st.writer));
            st.writer = static_cast<std::ptrdiff_t>(id);
            ++nodes_[id].slots;
          }
        } else {
          st.readers.push_back(id);
          ++nodes_[id].slots;
        }
      }
    }
    return preds;
  }

  std::vector<std::size_t> complete(std::size_t id) {
    nodes_[id].done = true;
    nodes_[id].slots = 0;
    auto out = std::move(nodes_[id].dependents);
    nodes_[id].dependents.clear();
    return out;
  }

  /// References the tracker should hold on each node: one while it is
  /// parked as any byte's writer or reader, plus one per unfinished
  /// predecessor's dependents entry naming it.
  std::vector<std::uint64_t> held_references() const {
    std::vector<std::uint64_t> held(nodes_.size(), 0);
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].slots > 0) ++held[id];
      for (std::size_t d : nodes_[id].dependents) ++held[d];
    }
    return held;
  }

 private:
  struct RefNode {
    bool done = false;
    std::uint64_t visit = 0;
    std::uint64_t slots = 0;  ///< writer/reader slots held while unfinished
    std::vector<std::size_t> dependents;
  };
  struct ByteState {
    std::ptrdiff_t writer = -1;
    std::vector<std::size_t> readers;
  };

  bool link(std::ptrdiff_t pred, std::size_t succ) {
    if (pred < 0 || static_cast<std::size_t>(pred) == succ) return false;
    RefNode& p = nodes_[static_cast<std::size_t>(pred)];
    if (p.done || p.visit == stamp_) return false;
    p.visit = stamp_;
    p.dependents.push_back(succ);
    return true;
  }

  /// A slot of `id` is displaced (a done node holds none).
  void vacate(std::size_t id) {
    if (!nodes_[id].done) --nodes_[id].slots;
  }

  const std::uint8_t* base_;
  std::uint64_t stamp_ = 0;
  std::vector<ByteState> bytes_;
  std::vector<RefNode> nodes_;
};

// Footprint generators for the serial oracle.  Each draws one task's
// accesses over an arena of `arena_bytes`.
using FootprintGen = std::vector<Access> (*)(sigrt::support::Xoshiro256&,
                                             std::uint8_t*, std::size_t);

Mode random_mode(sigrt::support::Xoshiro256& rng) {
  const auto m = rng.bounded(3);
  return m == 0 ? Mode::In : (m == 1 ? Mode::Out : Mode::InOut);
}

// 1-3 accesses of at most 256 bytes: many small runs inside one chunk.
std::vector<Access> small_footprint(sigrt::support::Xoshiro256& rng,
                                    std::uint8_t* arena, std::size_t bytes) {
  std::vector<Access> accesses;
  const std::size_t n = 1 + rng.bounded(3);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t off = rng.bounded(bytes - 1);
    std::size_t len = 1 + rng.bounded(4 * 64);
    if (off + len > bytes) len = bytes - off;
    accesses.push_back({arena + off, len, random_mode(rng)});
  }
  return accesses;
}

// 1-3 accesses at unaligned offsets whose sizes run from 1 byte to the
// whole multi-chunk arena (log-uniform), so runs split and merge at every
// position and accesses straddle chunk boundaries.
std::vector<Access> wide_footprint(sigrt::support::Xoshiro256& rng,
                                   std::uint8_t* arena, std::size_t bytes) {
  std::vector<Access> accesses;
  const std::size_t n = 1 + rng.bounded(3);
  for (std::size_t a = 0; a < n; ++a) {
    if (rng.bounded(8) == 0) {
      accesses.push_back({arena, bytes, random_mode(rng)});
      continue;
    }
    const std::size_t off = rng.bounded(bytes - 1);
    const auto scale = static_cast<unsigned>(std::bit_width(bytes));
    std::size_t len = 1 + rng.bounded(std::size_t{1} << rng.bounded(scale + 1));
    if (off + len > bytes) len = bytes - off;
    accesses.push_back({arena + off, len, random_mode(rng)});
  }
  return accesses;
}

// Listing 1: the first half of the arena is the input image, the second
// the output.  Most tasks read the whole input and write one band of the
// output (bands are unaligned and abut, so a tracker that rounded them to
// blocks would chain neighbours); now and then a task rewrites the whole
// input (the next frame).
std::vector<Access> listing1_footprint(sigrt::support::Xoshiro256& rng,
                                       std::uint8_t* arena, std::size_t bytes) {
  const std::size_t half = bytes / 2;
  if (rng.bounded(10) == 0) return {{arena, half, Mode::Out}};
  constexpr std::size_t kBands = 13;
  const std::size_t band = half / kBands;
  const std::size_t k = rng.bounded(kBands);
  return {{arena, half, Mode::In}, {arena + half + k * band, band, Mode::Out}};
}

// Stencil row bands whose width is no power of two: the first half of the
// arena is a grid of rows, the second its output.  Most tasks read rows
// y-1..y+1 and write output row y; now and then one updates an input row
// in place (inout), so reader and writer runs start at every row edge.
std::vector<Access> rows_footprint(sigrt::support::Xoshiro256& rng,
                                   std::uint8_t* arena, std::size_t bytes) {
  constexpr std::size_t kRow = 97;
  const std::size_t half = bytes / 2;
  const std::size_t rows = half / kRow;
  const std::size_t y = rng.bounded(rows);
  if (rng.bounded(6) == 0) return {{arena + y * kRow, kRow, Mode::InOut}};
  const std::size_t lo = y == 0 ? 0 : y - 1;
  const std::size_t hi = std::min(y + 1, rows - 1);
  return {{arena + lo * kRow, (hi - lo + 1) * kRow, Mode::In},
          {arena + half + y * kRow, kRow, Mode::Out}};
}

TEST(DepOracle, SerializedStripedTrackerMatchesReference) {
  constexpr std::size_t kNodes = 300;
  // The wide arenas span 3.5 chunks (under the tracker's 64 KiB chunks)
  // and start at an offset aligned to nothing.
  constexpr std::size_t kChunk = 1 << 16;
  constexpr std::size_t kWide = 7 * kChunk / 2;
  alignas(4096) static std::array<std::uint8_t, kWide + 4096> storage;
  struct Shape {
    const char* name;
    FootprintGen gen;
    std::size_t offset;
    std::size_t arena_bytes;
  };
  const Shape shapes[] = {
      {"small", small_footprint, 0, 4096},
      {"wide", wide_footprint, 1000, kWide},
      {"listing1", listing1_footprint, 1000, kWide},
      {"rows", rows_footprint, 1003, kWide},
  };

  for (const Shape& shape : shapes) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      BlockTracker tracker;
      std::vector<CountingNode> nodes(kNodes);
      sigrt::support::Xoshiro256 rng(seed);
      std::uint8_t* const arena = storage.data() + shape.offset;
      ReferenceTracker reference(arena, shape.arena_bytes, kNodes);

      std::vector<std::size_t> live;  // registered, not yet completed
      std::size_t next = 0;
      std::uint64_t ops = 0;
      while (next < kNodes || !live.empty()) {
        const bool can_register = next < kNodes;
        const bool do_register =
            can_register && (live.empty() || rng.bounded(2) == 0);
        if (do_register) {
          const std::vector<Access> accesses =
              shape.gen(rng, arena, shape.arena_bytes);
          const std::size_t got = tracker.register_node(&nodes[next], accesses);
          const std::size_t want = reference.register_node(next, accesses);
          ASSERT_EQ(got, want) << shape.name << " register #" << next
                               << " seed " << seed;
          live.push_back(next);
          ++next;
        } else {
          const std::size_t pick = rng.bounded(live.size());
          const std::size_t id = live[pick];
          live[pick] = live.back();
          live.pop_back();
          std::vector<Node*> out;
          tracker.complete(nodes[id], out);
          std::vector<std::size_t> got;
          got.reserve(out.size());
          for (Node* n : out) {
            got.push_back(static_cast<std::size_t>(
                static_cast<CountingNode*>(n) - nodes.data()));
            n->ref_release();  // adopt the handed-out reference
          }
          std::vector<std::size_t> want = reference.complete(id);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want) << shape.name << " complete #" << id
                               << " seed " << seed;
        }
        // Pin accounting: a node is referenced exactly while the reference
        // model still parks it (splits must add pins, displacements and
        // completions drop them) or lists it as a pending dependent.
        const std::vector<std::uint64_t> held = reference.held_references();
        for (std::size_t id = 0; id < next; ++id) {
          ASSERT_EQ(nodes[id].retains.load() - nodes[id].releases.load(),
                    held[id])
              << shape.name << " node " << id << " after op " << ops
              << " seed " << seed;
        }
        ++ops;
      }
      ASSERT_EQ(ops, kNodes * 2);
    }
  }
}

struct OracleParams {
  unsigned threads;
  std::size_t nodes_per_thread;
  std::uint64_t seed;
  /// Listing-1 footprints over a multi-chunk arena instead of small ones.
  bool wide_read = false;
};

// T threads register/complete overlapping random footprints directly
// against one tracker, in lock-step: at each step every thread registers
// one node, and no node of the step executes or completes until all of the
// step's nodes are registered.  Every conflicting pair within a step thus
// yields its edge regardless of thread timing.  Checked properties:
//   * conflict exclusion — two tasks whose footprints conflict never
//     execute concurrently (writer/reader occupancy counters per cell;
//     every access covers whole cells, so cell conflicts are byte
//     conflicts);
//   * edge balance — every predecessor counted by register_node() is
//     handed out by exactly one complete(), and the tracker's edge stat
//     agrees;
//   * refcount balance — after all nodes complete, every retain is paired
//     with a release (the tracker pins nothing);
//   * progress — a cycle in the discovered graph (the striping hazard this
//     guards against) would deadlock the gates; the bounded spin turns
//     that into a failure instead of a hang.
// The wide-read row draws Listing-1 footprints instead: a whole-input in()
// over several tracker chunks plus a one-cell out() band of the output,
// with an occasional whole-input out() (the next frame).
class DepConcurrentOracle : public testing::TestWithParam<OracleParams> {};

TEST_P(DepConcurrentOracle, ConflictExclusionEdgeAndRefBalance) {
  const OracleParams& p = GetParam();
  // Footprints are drawn in cells; 1 KiB cells make the wide-read input
  // span ~3 of the tracker's 64 KiB chunks.
  const std::size_t kBlock = p.wide_read ? 1024 : 64;
  constexpr std::size_t kSmallBlocks = 48;   // small arena: heavy overlap
  constexpr std::size_t kInputBlocks = 200;  // wide-read input cells
  constexpr std::size_t kBlocks = kInputBlocks + 16;
  constexpr std::uint32_t kHold = 1u << 20;
  static std::vector<std::uint8_t> arena(kBlocks * 1024);

  BlockTracker tracker;
  const std::size_t total = p.threads * p.nodes_per_thread;
  std::vector<CountingNode> nodes(total);

  // Per-cell occupancy the "execution" phase checks against.
  std::array<std::atomic<int>, kBlocks> writers{};
  std::array<std::atomic<int>, kBlocks> readers{};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> deps_found{0};
  std::atomic<std::uint64_t> deps_handed{0};
  std::atomic<bool> stuck{false};

  // Per-step rendezvous between registration and execution.  A thread
  // that gives up on a stuck gate drops out so the others cannot hang.
  std::barrier step_registered(static_cast<std::ptrdiff_t>(p.threads));

  auto worker = [&](unsigned tid) {
    sigrt::support::Xoshiro256 rng(p.seed * 977 + tid);
    std::vector<Node*> out;
    for (std::size_t i = 0; i < p.nodes_per_thread; ++i) {
      CountingNode& node = nodes[tid * p.nodes_per_thread + i];

      // Random footprint: 1-3 accesses of 1-4 cells each.  The occupancy
      // oracle's footprint is de-duplicated per cell (a task may name a
      // cell through several accesses; against *itself* that is never a
      // conflict).
      std::vector<Access> accesses;
      std::array<std::uint8_t, kBlocks> role{};  // 1 = read, 2 = write
      auto add = [&](std::size_t lo, std::size_t hi, Mode mode) {
        accesses.push_back(
            {arena.data() + lo * kBlock, (hi - lo) * kBlock, mode});
        for (std::size_t b = lo; b < hi; ++b) {
          role[b] = std::max<std::uint8_t>(
              role[b], sigrt::dep::writes(mode) ? 2 : 1);
        }
      };
      if (p.wide_read) {
        if (rng.bounded(8) == 0) {
          add(0, kInputBlocks, Mode::Out);
        } else {
          const std::size_t band =
              kInputBlocks + rng.bounded(kBlocks - kInputBlocks);
          add(0, kInputBlocks, Mode::In);
          add(band, band + 1, Mode::Out);
        }
      }
      const std::size_t n = p.wide_read ? 0 : 1 + rng.bounded(3);
      for (std::size_t a = 0; a < n; ++a) {
        const std::size_t lo = rng.bounded(kSmallBlocks);
        const std::size_t span = 1 + rng.bounded(4);
        const std::size_t hi = std::min(lo + span, kSmallBlocks);
        const auto m = rng.bounded(3);
        add(lo, hi, m == 0 ? Mode::In : (m == 1 ? Mode::Out : Mode::InOut));
      }
      std::vector<std::pair<std::size_t, bool>> foot;  // (cell, writes)
      for (std::size_t b = 0; b < kBlocks; ++b) {
        if (role[b] != 0) foot.emplace_back(b, role[b] == 2);
      }

      // Runtime-style gate protocol: surplus hold, register, fold in the
      // dependency count, wait for predecessors.
      node.gate.store(kHold, std::memory_order_relaxed);
      const std::size_t deps = tracker.register_node(&node, accesses);
      deps_found.fetch_add(deps, std::memory_order_relaxed);
      node.gate.fetch_sub(kHold - static_cast<std::uint32_t>(deps),
                          std::memory_order_acq_rel);
      step_registered.arrive_and_wait();

      const auto spin_start = std::chrono::steady_clock::now();
      while (node.gate.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
        if (std::chrono::steady_clock::now() - spin_start >
            std::chrono::seconds(60)) {
          stuck.store(true, std::memory_order_relaxed);
          step_registered.arrive_and_drop();
          return;  // cycle / lost wakeup: fail below instead of hanging
        }
      }

      // "Execute": occupy every cell of the footprint and verify no
      // conflicting occupant, with per-cell reader/writer rules.
      for (const auto& [b, w] : foot) {
        if (w) {
          if (writers[b].fetch_add(1, std::memory_order_acq_rel) != 0 ||
              readers[b].load(std::memory_order_acquire) != 0) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          readers[b].fetch_add(1, std::memory_order_acq_rel);
          if (writers[b].load(std::memory_order_acquire) != 0) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      volatile unsigned sink = 0;
      for (int spin = 0; spin < 500; ++spin) {
        sink = sink + static_cast<unsigned>(spin);
      }
      for (const auto& [b, w] : foot) {
        (w ? writers[b] : readers[b]).fetch_sub(1, std::memory_order_acq_rel);
      }

      // Complete: adopt each handed-out dependent, open its gate, release.
      out.clear();
      tracker.complete(node, out);
      deps_handed.fetch_add(out.size(), std::memory_order_relaxed);
      for (Node* d : out) {
        auto* dep = static_cast<CountingNode*>(d);
        dep->gate.fetch_sub(1, std::memory_order_acq_rel);
        dep->ref_release();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(p.threads);
  for (unsigned t = 0; t < p.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  ASSERT_FALSE(stuck.load()) << "gate never opened: graph cycle or lost wakeup";
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(deps_found.load(), deps_handed.load());
  EXPECT_EQ(tracker.stats().edges, deps_found.load());
  EXPECT_EQ(tracker.stats().registered_nodes, total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(nodes[i].retains.load(), nodes[i].releases.load())
        << "unbalanced refcount on node " << i;
    EXPECT_EQ(nodes[i].gate.load(), 0u);
  }
  // The small arena must actually produce cross-thread edges, or the
  // exclusion check is vacuous.  With the per-step rendezvous the edge
  // count depends on the seeded footprints, not on thread timing.
  EXPECT_GT(deps_found.load(), total / 8);
}

std::string oracle_name(const testing::TestParamInfo<OracleParams>& info) {
  return "t" + std::to_string(info.param.threads) + "_n" +
         std::to_string(info.param.nodes_per_thread) + "_s" +
         std::to_string(info.param.seed) +
         (info.param.wide_read ? "_wide" : "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, DepConcurrentOracle,
                         testing::ValuesIn(std::vector<OracleParams>{
                             {2, 600, 1},
                             {4, 400, 2},
                             {4, 400, 3},
                             {8, 200, 4},
                             {4, 300, 5, /*wide_read=*/true},
                         }),
                         oracle_name);

}  // namespace
