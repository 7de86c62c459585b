#include "dep/block_tracker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sigrt::dep {

BlockTracker::BlockTracker(unsigned stripes)
    : stripe_count_(stripes == 0 ? kMaxStripes : stripes),
      stripe_shift_(64u - static_cast<unsigned>(
                              std::countr_zero(stripe_count_ == 0
                                                   ? kMaxStripes
                                                   : stripe_count_))),
      all_stripes_mask_(stripe_count_ >= 64
                            ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << stripe_count_) - 1) {
  assert(stripe_count_ >= 1 && stripe_count_ <= kMaxStripes &&
         std::has_single_bit(stripe_count_) &&
         "stripe count must be a power of two in [1, kMaxStripes]");
}

std::uint64_t BlockTracker::stripe_mask(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
  if (hi - lo + 1 >= stripe_count_) return all_stripes_mask_;
  std::uint64_t mask = 0;
  for (std::uint64_t c = lo; c <= hi; ++c) {
    mask |= std::uint64_t{1} << stripe_of(c);
  }
  return mask;
}

void BlockTracker::lock_stripes(std::uint64_t mask) noexcept {
  // Ascending stripe order — the global lock order that keeps concurrent
  // multi-stripe registrations deadlock-free.
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    stripes_[static_cast<unsigned>(std::countr_zero(m))].lock.lock();
  }
}

void BlockTracker::unlock_stripes(std::uint64_t mask) noexcept {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    stripes_[static_cast<unsigned>(std::countr_zero(m))].lock.unlock();
  }
}

bool BlockTracker::link(Node* pred, Node* succ, std::uint64_t stamp) {
  if (pred == nullptr || pred == succ) return false;
  if (pred->visit_stamp_.load(std::memory_order_relaxed) == stamp) {
    return false;  // already linked this pass
  }
  // Fast path: a predecessor observed done needs no edge.  The acquire
  // pairs with complete()'s release store, so the successor's registering
  // thread — and, through the scheduler's publication edges, the worker
  // that eventually runs it — sees the predecessor's side effects.
  if (pred->done_.load(std::memory_order_acquire)) return false;
  bool added = false;
  pred->dep_lock_.lock();
  if (!pred->done_.load(std::memory_order_relaxed)) {  // re-check under lock
    succ->ref_retain();  // the dependents entry owns one reference
    pred->dependents_.push_back(succ);
    added = true;
  }
  pred->dep_lock_.unlock();
  if (added) pred->visit_stamp_.store(stamp, std::memory_order_relaxed);
  return added;
}

std::uint32_t BlockTracker::new_state(Chunk& chunk) {
  if (!chunk.free_states.empty()) {
    const std::uint32_t slot = chunk.free_states.back();
    chunk.free_states.pop_back();
    return slot;
  }
  chunk.states.emplace_back();
  // Every slot can be free at once; sizing the free list with the slab
  // keeps a merge (which frees a slot under the lock) from allocating.
  if (chunk.free_states.capacity() < chunk.states.size()) {
    chunk.free_states.reserve(chunk.states.capacity());
  }
  return static_cast<std::uint32_t>(chunk.states.size() - 1);
}

std::size_t BlockTracker::run_at(const Chunk& chunk,
                                 std::uint32_t off) noexcept {
  // The last run starting at or before `off` (runs[0] starts at 0).
  const auto after = std::upper_bound(
      chunk.runs.begin(), chunk.runs.end(), off,
      [](std::uint32_t o, const Run& r) { return o < r.start; });
  return static_cast<std::size_t>(after - chunk.runs.begin()) - 1;
}

std::size_t BlockTracker::split(Chunk& chunk, std::uint64_t off,
                                const Node* self, std::int64_t& parks) {
  if (off >= kChunkBytes) return chunk.runs.size();
  const auto start = static_cast<std::uint32_t>(off);
  const std::size_t i = run_at(chunk, start);
  if (chunk.runs[i].start == start) return i;
  const std::uint32_t slot = new_state(chunk);
  chunk.runs.insert(chunk.runs.begin() + static_cast<std::ptrdiff_t>(i + 1),
                    Run{start, slot});
  const RunState& src = chunk.states[chunk.runs[i].state];
  // A fresh slot is empty, so an empty run splits without a copy.
  if (src.empty()) return i + 1;
  RunState& run = chunk.states[slot];
  run.last_writer = src.last_writer;
  run.readers.assign(src.readers);
  // Each copied slot is a new pin of a node that is already pinned here
  // (so its count is above zero); the registering node's own slots are
  // not published yet and go into the registration's local count.
  auto pin = [&](Node* n) {
    if (n == self) {
      ++parks;
    } else {
      n->pin_count_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (run.last_writer != nullptr) pin(run.last_writer);
  run.readers.for_each(pin);
  return i + 1;
}

std::size_t BlockTracker::register_node(Node* node,
                                        std::span<const Access> accesses) {
  // Stamps are process-unique (never reused, never 0), so concurrent
  // registrations stamping the same predecessor can at worst miss a
  // de-duplication — a harmless duplicate edge whose gate arithmetic still
  // balances — never alias each other's stamps.
  const std::uint64_t stamp = stamp_.fetch_add(1, std::memory_order_relaxed);
  registered_nodes_.fetch_add(1, std::memory_order_relaxed);

  // Pass 1 (no locks): the stripe set of the whole footprint.
  std::uint64_t mask = 0;
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) continue;
    const ByteRange r = byte_range(a);
    mask |= stripe_mask(r.lo >> kChunkShift, r.hi >> kChunkShift);
  }
  if (mask == 0) return 0;

  // Pass 2: hold every involved stripe for the duration so conflicting
  // registrations serialize in one consistent order across all shared
  // bytes (pairwise edges can then never form a cycle).
  lock_stripes(mask);

  std::size_t predecessors = 0;
  std::int64_t parks = 0;
  auto link_pred = [&](Node* pred) {
    if (link(pred, node, stamp)) ++predecessors;
  };
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) continue;
    const ByteRange range = byte_range(a);
    node->touched_ranges_.push_back(range);
    for (std::uint64_t c = range.lo >> kChunkShift; c <= range.hi >> kChunkShift;
         ++c) {
      Stripe& stripe = stripes_[stripe_of(c)];
      bool inserted = false;
      Chunk& chunk = stripe.map.get_or_insert(c, inserted);
      if (inserted) {
        ++stripe.chunks_ever;
        chunk.runs.push_back(Run{0, new_state(chunk)});
      }
      const auto [first, last] = chunk_span(c, range);
      std::size_t i = split(chunk, first, node, parks);
      split(chunk, std::uint64_t{last} + 1, node, parks);

      for (; i < chunk.runs.size() && chunk.runs[i].start <= last; ++i) {
        RunState& run = chunk.states[chunk.runs[i].state];
        if (reads(a.mode)) link_pred(run.last_writer);  // RAW
        if (!writes(a.mode)) {
          run.readers.add(node);
          ++parks;
          continue;
        }
        link_pred(run.last_writer);  // WAW
        // WAR: writer after readers — link each, then drop its pin.  A
        // reader pin parked by an earlier access of this same registration
        // is displaced by adjusting the local park count, not the shared
        // reference.
        run.readers.for_each([&](Node* r) {
          if (r == node) {
            --parks;
            return;
          }
          link_pred(r);
          unpin(r);
        });
        run.readers.clear();
        // A later write clause of this same registration may find the node
        // already parked as this run's writer; the existing pin stands
        // (unpin here would transiently underflow the not-yet-published
        // pin count).
        if (run.last_writer != node) {
          if (run.last_writer != nullptr) unpin(run.last_writer);
          run.last_writer = node;
          ++parks;
        }
      }
    }
  }

  // One retained reference backs every pin of this node; the pin count is
  // published before the stripe locks drop, so any later split or
  // displacement finds it in place.
  if (parks > 0) {
    node->ref_retain();
    node->pin_count_.fetch_add(static_cast<std::uint32_t>(parks),
                               std::memory_order_relaxed);
  }

  unlock_stripes(mask);
  if (predecessors != 0) {
    edges_.fetch_add(predecessors, std::memory_order_relaxed);
  }
  return predecessors;
}

void BlockTracker::unpark(Chunk& chunk, std::uint32_t a, std::uint32_t b,
                          Node& node) noexcept {
  auto state = [&chunk](std::size_t i) -> RunState& {
    return chunk.states[chunk.runs[i].state];
  };
  // Folds run j into its left neighbour; both are empty.
  auto merge = [&chunk](std::size_t j) {
    chunk.free_states.push_back(chunk.runs[j].state);  // capacity reserved
    chunk.runs.erase(chunk.runs.begin() + static_cast<std::ptrdiff_t>(j));
  };
  for (std::size_t i = run_at(chunk, a);
       i < chunk.runs.size() && chunk.runs[i].start <= b;) {
    RunState& run = state(i);
    if (run.last_writer == &node) {
      run.last_writer = nullptr;
      unpin(&node);
    }
    // Parked at most once per covering access, and one visit per access.
    if (run.readers.remove(&node)) unpin(&node);
    if (!run.empty() || chunk.runs.size() <= kIdleRuns) {
      ++i;
      continue;
    }
    if (i + 1 < chunk.runs.size() && state(i + 1).empty()) merge(i + 1);
    if (i > 0 && state(i - 1).empty()) {
      merge(i);  // run i is now the one after the merged pair
      continue;
    }
    ++i;
  }
}

void BlockTracker::complete(Node& node, std::vector<Node*>& out) {
  // Phase 1 — publish: set done_ and harvest the dependents, all under the
  // node's dep_lock_ so the last racing link() either lands before the
  // harvest (and is collected here) or observes done_ (and adds no edge).
  // No stripe lock is held, keeping the stripe→node lock order one-way.
  node.dep_lock_.lock();
  node.done_.store(true, std::memory_order_release);
  // The dependents' references transfer to the caller; the vector keeps its
  // capacity for the node's next life in the task pool.
  out.insert(out.end(), node.dependents_.begin(), node.dependents_.end());
  node.dependents_.clear();
  node.dep_lock_.unlock();

  // Phase 2 — unpin: drop every run pin still naming this node, one chunk
  // (and so one stripe lock) at a time, so the tracker holds no pointer to
  // it afterwards (pooled tasks recycle promptly; plain test nodes may be
  // destroyed).  Runs whose pin was already displaced by a later writer
  // are no-ops here.  A registration that meanwhile finds a still-parked
  // pin sees done_ and links nothing.
  for (const ByteRange& r : node.touched_ranges_) {
    for (std::uint64_t c = r.lo >> kChunkShift; c <= r.hi >> kChunkShift; ++c) {
      Stripe& stripe = stripes_[stripe_of(c)];
      support::SpinLockGuard guard(stripe.lock);
      Chunk* chunk = stripe.map.find(c);
      if (chunk == nullptr) continue;  // reset() dropped it
      const auto [first, last] = chunk_span(c, r);
      unpark(*chunk, first, last, node);
    }
  }
  node.touched_ranges_.clear();
}

void BlockTracker::reset() {
  // Precondition: no registered node is still pending, so every pin was
  // already dropped by complete() — the chunks reference nothing and are
  // simply forgotten.  Never-completed nodes (test-owned) lose their
  // no-op pins without being touched.
  for (Stripe& stripe : stripes_) {
    stripe.lock.lock();
    stripe.map.clear();
    stripe.lock.unlock();
  }
}

TrackerStats BlockTracker::stats() const {
  TrackerStats s;
  s.registered_nodes = registered_nodes_.load(std::memory_order_relaxed);
  s.edges = edges_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    stripe.lock.lock();
    s.blocks_touched += stripe.chunks_ever;
    stripe.lock.unlock();
  }
  return s;
}

}  // namespace sigrt::dep
