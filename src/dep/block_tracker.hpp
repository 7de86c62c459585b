// Byte-exact dynamic dependence analysis.
//
// The paper's runtime extends BDDT [23], which discovers inter-task
// dependencies from the programmer's in()/out() clauses.  This module
// reimplements that substrate: for every byte named by some clause the
// tracker knows the last unfinished writer and the unfinished readers since
// that write, and derives RAW, WAR and WAW edges when a new task registers
// its footprint.  Two accesses conflict exactly when their byte ranges
// overlap and one of them writes — there is no block rounding, so
// neighbouring bands of one malloc'd array never alias each other.
//
// The tracker is policy-agnostic: it neither schedules nor executes.  The
// runtime registers each task at spawn time and notifies completion from
// worker threads.  Unlike the paper's single bookkeeping lock (§3.4 argues
// one is acceptable for coarse tasks), this tracker is striped and mostly
// lock-free so fine-grained dependent workloads scale:
//
//   * Runs of bytes.  The address space is cut into fixed 64 KiB chunks,
//     the unit of striping and locking (block_bytes() reports it).  Inside
//     a chunk a sorted array of byte offsets partitions the chunk into
//     runs — spans of consecutive bytes that share one last writer and one
//     reader set — and dependence state is kept once per run.  Registering
//     an access splits at most two runs (at its first byte and one past its
//     last) and then applies the RAW/WAW/WAR rule once per run it covers;
//     completion visits the runs overlapping the node's recorded ranges
//     (one per access).  Cost therefore scales with runs overlapped, not
//     bytes: a whole-image in() over 1 MiB is ~17 chunk runs.  A split
//     copies the run's state and adds one pin per copied slot.  A chunk
//     keeps up to kIdleRuns runs, so boundaries that recur op after op
//     are not split and merged again every time; beyond that, a run left
//     with no writer and no readers merges with an empty neighbour.
//   * Reader multiset.  A run's readers live in six inline slots and then
//     in an open-addressed, linear-probing table with backward-shift
//     deletion, so adding and removing a reader is O(1) expected however
//     many tasks read the run — Listing 1 parks every task of a job on the
//     input image.  It is a multiset: a node parked twice in one run (two
//     overlapping in() clauses) is removed once per completion visit.
//   * The chunk map is sharded into cache-line-padded stripes by a
//     Fibonacci hash of the chunk index; each stripe owns an open-addressed
//     flat table (support::FlatBlockMap) whose chunks, run arrays, run
//     states and reader tables are reset, never freed, preserving the
//     zero-allocation steady state.
//   * register_node() computes the stripe set of the whole footprint up
//     front and holds those stripe locks — acquired in ascending stripe
//     order — for the duration of the registration.  Conflicting
//     registrations therefore serialize in one consistent order across
//     every shared byte, which is what keeps the discovered task graph
//     acyclic; footprints in disjoint stripes proceed in parallel.
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

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

/// Inclusive byte-address range of one registered access.
struct ByteRange {
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
  /// One byte range per access — the only places this node can be parked
  /// as writer/reader; complete() walks the runs overlapping them.  Two
  /// fit inline (Listing 1's in() + out()) so the task stays small; a
  /// longer footprint spills once per pool slot and keeps the capacity.
  support::SmallVec<ByteRange, 2> touched_ranges_;
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
  /// Distinct block_bytes()-sized chunks ever registered (reset() forgets
  /// which, so a chunk registered again after it counts again).
  std::uint64_t blocks_touched = 0;
};

class BlockTracker {
 public:
  /// Stripe-count ceiling: a whole footprint's stripe set fits into one
  /// uint64 mask, which makes sorted-order multi-stripe locking a ctz loop.
  static constexpr unsigned kMaxStripes = 64;

  /// `stripes` selects the live stripe count — a power of two in
  /// [1, kMaxStripes]; 0 selects the ceiling.  Small machines waste no
  /// cache walking 64 mostly-empty shards; the runtime derives its value
  /// from the CPU topology (~4 stripes per worker, see
  /// topo::Topology::recommended_stripes).
  explicit BlockTracker(unsigned stripes = 0);

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
  /// The tracker's unit of locked work: the chunk size.  Dependences are
  /// byte-exact whatever this is; a registration or completion visits (and
  /// a stripe lock covers) one chunk at a time, so an access costs about
  /// one visit per block_bytes() it spans.
  [[nodiscard]] std::size_t block_bytes() const noexcept { return kChunkBytes; }
  [[nodiscard]] unsigned stripe_count() const noexcept { return stripe_count_; }

 private:
  /// Chunk size: bytes per map entry and per stripe-lock visit.  Offsets
  /// inside a chunk fit a uint32_t.
  static constexpr unsigned kChunkShift = 16;
  static constexpr std::uint64_t kChunkBytes = std::uint64_t{1} << kChunkShift;

  /// Runs a chunk keeps before emptied runs merge.  Below it, boundaries
  /// that recur op after op (rows, bands) stay in place: registrations
  /// find their split points already there and completions move no
  /// memory, which keeps the stripe-lock hold short when a spawner and
  /// completing workers share a chunk.  Above it, a run left empty merges
  /// with empty neighbours, which bounds a chunk's idle runs.
  static constexpr std::size_t kIdleRuns = 128;

  /// Readers of one run: a multiset of nodes with O(1) expected add and
  /// remove.  Up to kInline readers sit in an inline array; beyond that
  /// they move into an open-addressed, linear-probing table (load at most
  /// 1/2, backward-shift deletion, so no tombstones).  Emptying the set by
  /// removals or clear() returns it to inline mode with the table all null;
  /// the table is kept, never freed, so a warm run never allocates.
  class ReaderSet {
   public:
    static constexpr std::uint32_t kInline = 6;

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    void add(Node* n) {
      if (!hashed_) {
        if (size_ < kInline) {
          inline_[size_++] = n;
          return;
        }
        if (cap_ == 0) rehash(kMinTable);
        hashed_ = true;
        for (Node* r : inline_) insert(r);
      } else if ((size_ + 1) * 2 > cap_) {
        rehash(cap_ * 2);
      }
      insert(n);
      ++size_;
    }

    /// Removes one occurrence of `n`; true when found.
    bool remove(Node* n) noexcept {
      if (!hashed_) {
        for (std::uint32_t i = 0; i < size_; ++i) {
          if (inline_[i] != n) continue;
          inline_[i] = inline_[--size_];
          return true;
        }
        return false;
      }
      const std::uint32_t mask = cap_ - 1;
      std::uint32_t i = home(n);
      for (; table_[i] != n; i = (i + 1) & mask) {
        if (table_[i] == nullptr) return false;
      }
      erase_at(i);
      if (--size_ == 0) hashed_ = false;
      return true;
    }

    template <typename F>
    void for_each(F&& f) const {
      if (!hashed_) {
        for (std::uint32_t i = 0; i < size_; ++i) f(inline_[i]);
        return;
      }
      for (std::uint32_t i = 0; i < cap_; ++i) {
        if (table_[i] != nullptr) f(table_[i]);
      }
    }

    void clear() noexcept {
      if (hashed_) std::fill_n(table_.get(), cap_, nullptr);
      hashed_ = false;
      size_ = 0;
    }

    /// Replaces the contents with a copy of `src`, reusing this set's table
    /// (the set itself is move-only).
    void assign(const ReaderSet& src) {
      clear();
      src.for_each([this](Node* n) { add(n); });
    }

   private:
    static constexpr std::uint32_t kMinTable = 16;  // power of two

    [[nodiscard]] std::uint32_t home(const Node* n) const noexcept {
      return static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(n)) *
           0x9E3779B97F4A7C15ULL) >>
          shift_);
    }

    void insert(Node* n) noexcept {
      const std::uint32_t mask = cap_ - 1;
      std::uint32_t i = home(n);
      while (table_[i] != nullptr) i = (i + 1) & mask;
      table_[i] = n;
    }

    /// Empties slot `i`, shifting later entries of its probe cluster back
    /// so that every entry stays reachable from its home slot.
    void erase_at(std::uint32_t i) noexcept {
      const std::uint32_t mask = cap_ - 1;
      for (std::uint32_t j = (i + 1) & mask; table_[j] != nullptr;
           j = (j + 1) & mask) {
        // The entry at j may fill the hole unless its home lies
        // cyclically in (i, j].
        if (((j - home(table_[j])) & mask) >= ((j - i) & mask)) {
          table_[i] = table_[j];
          i = j;
        }
      }
      table_[i] = nullptr;
    }

    /// Moves the table entries (if any) into a fresh table of `cap` slots.
    void rehash(std::uint32_t cap) {
      std::unique_ptr<Node*[]> old = std::exchange(
          table_, std::make_unique<Node*[]>(cap));  // value-init: all null
      const std::uint32_t old_cap = std::exchange(cap_, cap);
      shift_ = 64u - static_cast<unsigned>(std::countr_zero(cap));
      if (!hashed_) return;
      for (std::uint32_t i = 0; i < old_cap; ++i) {
        if (old[i] != nullptr) insert(old[i]);
      }
    }

    std::array<Node*, kInline> inline_{};
    std::unique_ptr<Node*[]> table_;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;  ///< table slots (power of two), 0 before first use
    unsigned shift_ = 64;    ///< 64 - log2(cap_)
    bool hashed_ = false;    ///< entries live in table_, not inline_
  };

  /// History of one run: the unfinished last writer and the unfinished
  /// readers since that write.
  struct RunState {
    Node* last_writer = nullptr;  ///< pinned while parked here
    ReaderSet readers;            ///< each occurrence pinned

    [[nodiscard]] bool empty() const noexcept {
      return last_writer == nullptr && readers.empty();
    }
  };

  /// A run boundary: the run's first byte as an offset into its chunk and
  /// the slot of its state in the chunk's state slab.
  struct Run {
    std::uint32_t start;
    std::uint32_t state;
  };

  /// kChunkBytes consecutive bytes.  `runs` is sorted by start and begins
  /// at offset 0; each run names its own RunState slot.  Slots freed by
  /// merges go to `free_states` (empty, table capacity kept) and are
  /// reused by later splits; all three vectors only ever grow, so a warm
  /// chunk never allocates.
  struct Chunk {
    std::vector<Run> runs;
    std::vector<RunState> states;
    std::vector<std::uint32_t> free_states;
  };

  /// An empty RunState slot of `chunk` (may grow `states`: invalidates
  /// RunState references into it).
  static std::uint32_t new_state(Chunk& chunk);

  /// Index of the run containing byte `off` of `chunk`.
  [[nodiscard]] static std::size_t run_at(const Chunk& chunk,
                                          std::uint32_t off) noexcept;

  /// Bytes [first, last] of chunk `c` that byte range `r` covers.
  struct ChunkSpan {
    std::uint32_t first;
    std::uint32_t last;
  };
  [[nodiscard]] static ChunkSpan chunk_span(std::uint64_t c,
                                            const ByteRange& r) noexcept {
    const auto off = [](std::uint64_t byte) {
      return static_cast<std::uint32_t>(byte & (kChunkBytes - 1));
    };
    return {c == r.lo >> kChunkShift ? off(r.lo) : 0u,
            c == r.hi >> kChunkShift ? off(r.hi)
                                     : static_cast<std::uint32_t>(kChunkBytes - 1)};
  }

  /// Makes byte `off` a run start (no-op at kChunkBytes) by copying its
  /// run's state; every copied slot adds one pin (to `parks` when the slot
  /// is `self`'s own).  Returns the index of the run starting at `off`.
  static std::size_t split(Chunk& chunk, std::uint64_t off, const Node* self,
                           std::int64_t& parks);

  /// Drops `node`'s pins from the runs overlapping bytes [a, b] of
  /// `chunk`; past kIdleRuns runs, merges runs left empty with empty
  /// neighbours.
  static void unpark(Chunk& chunk, std::uint32_t a, std::uint32_t b,
                     Node& node) noexcept;

  /// One shard of the chunk map.  Padded so neighbouring stripes never
  /// share a cache line under concurrent register/complete traffic.
  struct alignas(64) Stripe {
    mutable support::SpinLock lock;
    support::FlatBlockMap<Chunk> map SIGRT_GUARDED_BY(lock);
    /// Chunks ever inserted into this stripe's map (stats).
    std::uint64_t chunks_ever SIGRT_GUARDED_BY(lock) = 0;
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

  /// Inclusive byte range of a non-empty access.
  [[nodiscard]] static ByteRange byte_range(const Access& a) noexcept {
    const auto lo =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(a.ptr));
    return {lo, lo + a.bytes - 1};
  }

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
