// Block-level dynamic dependence analysis.
//
// The paper's runtime extends BDDT [23], which discovers inter-task
// dependencies at block granularity from the programmer's in()/out()
// clauses.  This module reimplements that substrate: memory is viewed as
// fixed-size blocks; for every block the tracker knows the last writer and
// the readers since that write, and derives RAW, WAR and WAW edges when a
// new task registers its footprint.
//
// The tracker is policy-agnostic: it neither schedules nor executes.  The
// runtime registers each task at spawn time and notifies completion from
// worker threads.  Unlike the paper's single bookkeeping lock (§3.4 argues
// one is acceptable for coarse tasks), this tracker is striped and mostly
// lock-free so fine-grained dependent workloads scale:
//
//   * Runs, not blocks.  Block indices are grouped into fixed chunks of
//     kChunkBlocks (64) blocks.  Inside a chunk a 64-bit run-start mask
//     partitions the blocks into runs — spans of consecutive blocks that
//     share one last writer and one reader set — and dependence state is
//     kept once per run.  Registering an access splits at most two runs
//     (at its first block and one past its last) and then applies the
//     RAW/WAW/WAR rule once per run it covers; completion visits the runs
//     overlapping the node's recorded ranges (one per access).  Cost
//     therefore scales with runs overlapped, not blocks: a whole-image
//     in() over 1 MiB of 1 KiB blocks is 16 chunk runs, not 1,024 blocks.
//     A split copies the run's state and adds one pin per copied slot;
//     a run left with no writer and no readers merges with an empty
//     neighbour, so quiet memory collapses back to one run per chunk.
//   * The chunk map is sharded into cache-line-padded stripes by a
//     Fibonacci hash of the chunk index; each stripe owns an open-addressed
//     flat table (support::FlatBlockMap) whose chunks and run states are
//     reset, never freed, preserving the zero-allocation steady state.
//   * register_node() computes the stripe set of the whole footprint up
//     front and holds those stripe locks — acquired in ascending stripe
//     order — for the duration of the registration.  Conflicting
//     registrations therefore serialize in one consistent order across
//     every shared block, which is what keeps the discovered task graph
//     acyclic; disjoint footprints proceed in parallel.
//   * Per-node dependence state lives outside the stripe locks: an atomic
//     done_ flag and a spinlocked dependents_ list implement a
//     publish/observe protocol (see "Node-state protocol" below) so that
//     link() under one stripe can race complete() of the same predecessor
//     without lost wakeups or double releases.
//
// Node-state protocol.  complete() first acquires the node's dep_lock_,
// stores done_ = true (release) and harvests the dependents list; only
// then does it visit the stripes to drop the node's run pins.  A racing
// link() checks done_ (acquire) before and after taking the same
// dep_lock_: if it observes done_, the predecessor's side effects are
// already visible (the acquire pairs with complete's release) and no edge
// is needed; otherwise the append happens under the lock and complete()
// is guaranteed to harvest it.  An edge is counted in register_node()'s
// return value exactly when the corresponding dependents entry was
// appended, so the caller's gate arithmetic always balances.
//
// Lock order (deadlock freedom): stripe locks are only ever acquired in
// ascending stripe order (complete() holds one at a time), and a node's
// dep_lock_ is only acquired either alone (complete phase 1) or while
// holding stripe locks (link), never the other way around.
//
// Lifetime: the tracker circulates raw Node* and pins nodes through the
// intrusive ref_retain()/ref_release() hooks — one shared reference
// covering all of a node's run pins (last writer / reader slots, counted
// by Node::pin_count_) and one reference per dependents-list entry.  A
// split adds the copied slots to the pinned nodes' pin_count_ (or, for
// the registering node's own slots, to the registration's local count);
// it always copies an existing pin, so a count never rises from zero.
// Runs holding a node never extend past the node's own access ranges
// (splits only refine them and only empty runs merge), so complete()
// removes every pin of the completing node and the tracker holds no
// pointer to it afterwards.  For sigrt::Task the hooks drive the pooled
// intrusive refcount; for plain Nodes (tests) they default to no-ops and
// the caller must keep a registered node alive until it completes (the
// tracker may read it on any later registration of an overlapping range).
// The destructor drops any remaining map entries without touching the
// nodes: with every registered node completed (the runtime barriers before
// teardown) there are none, and never-completed test nodes are simply
// forgotten.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/flat_block_map.hpp"
#include "support/small_vec.hpp"
#include "support/spinlock.hpp"

namespace sigrt::dep {

/// Access direction of one clause.  In ≡ in(), Out ≡ out(), InOut ≡ inout().
enum class Mode : std::uint8_t {
  In = 1,
  Out = 2,
  InOut = 3,
};

[[nodiscard]] constexpr bool reads(Mode m) noexcept {
  return (static_cast<std::uint8_t>(m) & static_cast<std::uint8_t>(Mode::In)) != 0;
}
[[nodiscard]] constexpr bool writes(Mode m) noexcept {
  return (static_cast<std::uint8_t>(m) & static_cast<std::uint8_t>(Mode::Out)) != 0;
}

/// One data-flow clause: a byte range plus its direction.
struct Access {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  Mode mode = Mode::In;
};

/// Convenience constructors mirroring the pragma clause names.
template <typename T>
[[nodiscard]] Access in(const T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::In};
}
template <typename T>
[[nodiscard]] Access out(T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::Out};
}
template <typename T>
[[nodiscard]] Access inout(T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::InOut};
}

/// Inclusive block-index range of one registered access.
struct BlockRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Participant in dependence tracking.  sigrt::Task derives from this.
/// done_ and dependents_ are the publish/observe half of the protocol in
/// the header comment (dep_lock_ + atomics, touched by link/complete from
/// any thread); touched_ranges_ is only ever written by the registering
/// thread and read by the completing one, which the runtime orders through
/// the task's publication to the scheduler.
class Node {
 public:
  virtual ~Node() = default;

  /// Lifetime hooks: the tracker retains a node for as long as it appears
  /// in dependence state (block map or a dependents list) and releases it
  /// when that slot is dropped or handed to the caller.  Defaults are
  /// no-ops so standalone Nodes (tests) need no refcount — their owner
  /// keeps them alive until complete().
  virtual void ref_retain() noexcept {}
  virtual void ref_release() noexcept {}

 protected:
  /// Restores the tracker-owned fields to their freshly-constructed state;
  /// used by pooled subclasses when a slot is recycled.  A non-empty
  /// dependents list here means the node is being recycled without having
  /// gone through complete() (abnormal teardown): the retained successor
  /// references are dropped so their slots still recycle.  The buffers
  /// keep their capacity — part of the zero-allocation steady state.
  /// Pool-recycle path: the slot is exclusively owned (refcount already
  /// zero), so dependents_ is accessed without dep_lock_ by protocol.
  void reset_dep_state() noexcept SIGRT_NO_THREAD_SAFETY_ANALYSIS {
    for (Node* d : dependents_) d->ref_release();
    dependents_.clear();
    touched_ranges_.clear();
    visit_stamp_.store(0, std::memory_order_relaxed);
    pin_count_.store(0, std::memory_order_relaxed);
    done_.store(false, std::memory_order_relaxed);
  }

 private:
  friend class BlockTracker;
  /// Guards dependents_ and the done_ publish edge (node-state protocol).
  support::SpinLock dep_lock_;
  /// Set (release) under dep_lock_ by complete(); read lock-free (acquire)
  /// by link()'s fast path, hence atomic rather than SIGRT_GUARDED_BY.
  std::atomic<bool> done_{false};
  /// Successors; one retained ref each.
  std::vector<Node*> dependents_ SIGRT_GUARDED_BY(dep_lock_);
  /// One block range per access — the only places this node can be parked
  /// as writer/reader; complete() walks the runs overlapping them.  Two
  /// fit inline (Listing 1's in() + out()) so the task stays small; a
  /// longer footprint spills once per pool slot and keeps the capacity.
  support::SmallVec<BlockRange, 2> touched_ranges_;
  /// De-duplication during one registration; stamp values are
  /// process-unique, so a stale stamp can never false-positive.
  std::atomic<std::uint64_t> visit_stamp_{0};
  /// Live run pins.  All pins share a single retained reference:
  /// register_node() counts its parks and retains once; a split copying a
  /// pin increments; whoever drops a pin (a displacing writer, complete()
  /// phase 2) decrements, and the count's zero crossing releases the
  /// shared reference.  This keeps the per-run cost to one relaxed RMW
  /// instead of two virtual refcount hooks.
  std::atomic<std::uint32_t> pin_count_{0};
};

/// Aggregate counters for tests and diagnostics.
struct TrackerStats {
  std::uint64_t registered_nodes = 0;
  std::uint64_t edges = 0;          // dependency edges discovered
  std::uint64_t blocks_touched = 0; // distinct blocks ever registered
};

class BlockTracker {
 public:
  /// Stripe-count ceiling: a whole footprint's stripe set fits into one
  /// uint64 mask, which makes sorted-order multi-stripe locking a ctz loop.
  static constexpr unsigned kMaxStripes = 64;

  /// `block_bytes` must be a power of two.  `stripes` selects the live
  /// stripe count — a power of two in [1, kMaxStripes]; 0 selects the
  /// ceiling.  Small machines waste no cache walking 64 mostly-empty
  /// shards; the runtime derives its value from the CPU topology
  /// (~4 stripes per worker, see topo::Topology::recommended_stripes).
  explicit BlockTracker(std::size_t block_bytes = 1024, unsigned stripes = 0);

  BlockTracker(const BlockTracker&) = delete;
  BlockTracker& operator=(const BlockTracker&) = delete;

  /// Registers `node`'s footprint and wires edges from every unfinished
  /// predecessor (RAW/WAR/WAW).  Returns the number of predecessors found;
  /// the caller must arrange for the node to stay unreleased until that many
  /// complete() notifications have named it as a dependent.  Predecessors
  /// may complete concurrently with the registration — callers seed their
  /// gate with a surplus hold (see Runtime::spawn_impl) so early
  /// notifications cannot zero it before this count is folded in.
  /// TSA opt-out: operates under the dynamic stripe set of lock_stripes()
  /// (ascending-order mask locking, inexpressible statically).
  std::size_t register_node(Node* node, std::span<const Access> accesses)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  /// Marks `node` complete, drops every run pin still naming it (the
  /// tracker holds no pointer to the node afterwards) and appends the
  /// dependents recorded so far to `out` (which is NOT cleared — callers
  /// reuse scratch buffers).  Each appended pointer carries one retained
  /// reference that the caller adopts: decrement the dependent's gate,
  /// then ref_release() it (or hand the reference on).  Nodes registered
  /// afterwards no longer depend on `node`.
  void complete(Node& node, std::vector<Node*>& out);

  /// Forgets all history.  Only valid when no tasks are in flight (every
  /// registered node completed), so the dropped map entries pin nothing.
  void reset();

  [[nodiscard]] TrackerStats stats() const;
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_bytes_; }
  [[nodiscard]] unsigned stripe_count() const noexcept { return stripe_count_; }

 private:
  /// Blocks per chunk: one bit each in a uint64 run-start mask.
  static constexpr unsigned kChunkBlocks = 64;

  /// History of one run.  Readers since the last write live in a small
  /// inline array that spills into a vector; both are reset — never
  /// freed — when readers are displaced, and a split copy-assigns into a
  /// slot that keeps its spill capacity, so a warm chunk never allocates.
  struct RunState {
    static constexpr unsigned kInlineReaders = 6;

    Node* last_writer = nullptr;  ///< pinned while parked here
    std::uint32_t reader_count = 0;
    std::array<Node*, kInlineReaders> readers_inline{};
    std::vector<Node*> readers_spill;  ///< readers beyond the inline array

    [[nodiscard]] bool empty() const noexcept {
      return last_writer == nullptr && reader_count == 0;
    }

    void add_reader(Node* n) {
      if (reader_count < kInlineReaders) {
        readers_inline[reader_count] = n;
      } else {
        readers_spill.push_back(n);
      }
      ++reader_count;
    }

    /// Swap-removes one occurrence of `n`; true when found.
    bool remove_reader(Node* n) noexcept {
      const std::uint32_t inline_count =
          reader_count < kInlineReaders ? reader_count : kInlineReaders;
      for (std::uint32_t i = 0; i < inline_count; ++i) {
        if (readers_inline[i] != n) continue;
        if (!readers_spill.empty()) {
          readers_inline[i] = readers_spill.back();
          readers_spill.pop_back();
        } else {
          readers_inline[i] = readers_inline[inline_count - 1];
        }
        --reader_count;
        return true;
      }
      for (std::size_t i = 0; i < readers_spill.size(); ++i) {
        if (readers_spill[i] != n) continue;
        readers_spill[i] = readers_spill.back();
        readers_spill.pop_back();
        --reader_count;
        return true;
      }
      return false;
    }

    template <typename F>
    void for_each_reader(F&& f) {
      const std::uint32_t inline_count =
          reader_count < kInlineReaders ? reader_count : kInlineReaders;
      for (std::uint32_t i = 0; i < inline_count; ++i) f(readers_inline[i]);
      for (Node* n : readers_spill) f(n);
    }

    void clear_readers() noexcept {
      reader_count = 0;
      readers_spill.clear();  // capacity kept: reset, not freed
    }
  };

  /// kChunkBlocks consecutive blocks.  Bit i of `starts` marks block i as
  /// the first block of a run (bit 0 always); runs[i] holds that run's
  /// state and is meaningful only at run starts (elsewhere it is empty).
  struct Chunk {
    std::uint64_t starts = 1;
    /// Blocks ever registered (stats).
    std::uint64_t seen = 0;
    /// Allocated on the chunk's first registration, then kept.
    std::unique_ptr<RunState[]> runs;
  };

  /// First block of the run containing block `pos` of a chunk.
  [[nodiscard]] static unsigned run_start(std::uint64_t starts,
                                          unsigned pos) noexcept {
    const std::uint64_t upto = starts & (~std::uint64_t{0} >> (63u - pos));
    return 63u - static_cast<unsigned>(std::countl_zero(upto));
  }
  /// One past the last block of the run starting at `s` (kChunkBlocks at
  /// the chunk's end).
  [[nodiscard]] static unsigned run_end(std::uint64_t starts,
                                        unsigned s) noexcept {
    const std::uint64_t above =
        s + 1 >= kChunkBlocks ? 0 : starts & (~std::uint64_t{0} << (s + 1));
    return above == 0 ? kChunkBlocks
                      : static_cast<unsigned>(std::countr_zero(above));
  }

  /// Blocks [first, last] of chunk `c` that block range `r` covers.
  struct ChunkSpan {
    unsigned first;
    unsigned last;
  };
  [[nodiscard]] static ChunkSpan chunk_span(std::uint64_t c,
                                            const BlockRange& r) noexcept {
    const auto pos = [](std::uint64_t b) {
      return static_cast<unsigned>(b % kChunkBlocks);
    };
    return {c == r.lo / kChunkBlocks ? pos(r.lo) : 0u,
            c == r.hi / kChunkBlocks ? pos(r.hi) : kChunkBlocks - 1};
  }

  /// Makes block `pos` a run start by copying its run's state; every copied
  /// slot adds one pin (to `parks` when the slot is `self`'s own).
  static void split(Chunk& chunk, unsigned pos, const Node* self,
                    std::int64_t& parks);

  /// Drops `node`'s pins from the runs overlapping blocks [a, b] of
  /// `chunk`, merging runs left empty with empty neighbours.
  static void unpark(Chunk& chunk, unsigned a, unsigned b, Node& node) noexcept;

  /// One shard of the chunk map.  Padded so neighbouring stripes never
  /// share a cache line under concurrent register/complete traffic.
  struct alignas(64) Stripe {
    mutable support::SpinLock lock;
    support::FlatBlockMap<Chunk> map SIGRT_GUARDED_BY(lock);
    /// Distinct blocks ever registered in this stripe's chunks.
    std::uint64_t blocks_ever SIGRT_GUARDED_BY(lock) = 0;
  };

  [[nodiscard]] unsigned stripe_of(std::uint64_t chunk) const noexcept {
    // Fibonacci hash: consecutive chunk indices of one array scatter over
    // stripes instead of marching through them in lockstep.  Shifting by
    // (64 - log2(stripe_count_)) keeps the top bits, so any power-of-two
    // stripe count reuses the same multiply.
    // stripe_count_ == 1 would need a shift by 64 (UB); short-circuit it.
    return stripe_shift_ >= 64
               ? 0u
               : static_cast<unsigned>((chunk * 0x9E3779B97F4A7C15ULL) >>
                                       stripe_shift_);
  }

  /// Builds the stripe mask of chunks [lo, hi]; a range covering every
  /// live stripe short-circuits to the all-live-stripes mask.
  [[nodiscard]] std::uint64_t stripe_mask(std::uint64_t lo,
                                          std::uint64_t hi) const noexcept;

  // Dynamic stripe sets (a ctz loop over a runtime mask, ascending order)
  // are beyond TSA's static capability tracking; the implementations and
  // every holder of a mask-locked region opt out with
  // SIGRT_NO_THREAD_SAFETY_ANALYSIS and rely on the documented ascending
  // lock order instead.
  void lock_stripes(std::uint64_t mask) noexcept SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  void unlock_stripes(std::uint64_t mask) noexcept
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  /// Adds an edge pred -> succ unless pred is done or already linked during
  /// this pass (visit stamp).  Returns true when an edge was added.  Must
  /// be called while holding the stripe lock that parked `pred` (the pin is
  /// what keeps the pointer alive).
  bool link(Node* pred, Node* succ, std::uint64_t stamp);

  /// Drops one run pin of `node`; the last pin releases the shared
  /// registration reference.  Caller must hold the stripe lock the pin was
  /// found under (which is what makes the pointer still dereferencable).
  static void unpin(Node* node) noexcept {
    if (node->pin_count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      node->ref_release();
    }
  }

  [[nodiscard]] std::uint64_t first_block(const void* ptr) const noexcept;
  [[nodiscard]] std::uint64_t last_block(const void* ptr,
                                         std::size_t bytes) const noexcept;

  const std::size_t block_bytes_;
  const unsigned block_shift_;
  const unsigned stripe_count_;   ///< live stripes (power of two <= kMaxStripes)
  const unsigned stripe_shift_;   ///< 64 - log2(stripe_count_)
  const std::uint64_t all_stripes_mask_;

  /// Storage is sized for the ceiling; only the first stripe_count_ entries
  /// are ever addressed (stripe_of masks into that prefix).
  std::array<Stripe, kMaxStripes> stripes_;

  /// Registration stamp source.  Starts at 1 so a freshly reset
  /// node's visit_stamp_ of 0 never matches a live stamp.
  std::atomic<std::uint64_t> stamp_{1};
  std::atomic<std::uint64_t> registered_nodes_{0};
  std::atomic<std::uint64_t> edges_{0};
};

}  // namespace sigrt::dep
