// Global Task Buffering (GTB), §3.3 / Listing 4 of the paper.
//
// Spawned tasks are buffered per group instead of issued.  When a buffer
// fills, or a barrier flushes it, the buffered window is sorted by
// significance and the top ratio()·window tasks are classified accurate,
// the rest approximate.  With an unbounded buffer (GTBMaxBuffer / Oracle)
// the classification is exact: it equals the offline-optimal assignment.
//
// Thread safety (the any-thread spawn contract): the per-group windows are
// guarded by one mutex, held only while mutating the buffers — a window
// that fills or flushes is SWAPPED out under the lock (the map slot takes
// a drained spare's storage in exchange) and classified/released outside
// it, so concurrent spawners never serialize behind a sort, two barriers
// flushing concurrently each release a disjoint window exactly once, and a
// release that executes inline (zero-worker mode) can recursively spawn
// into this policy without self-deadlock.  Drained windows return to the
// spare list with their capacity, so the steady state never regrows one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "support/mutex.hpp"

namespace sigrt {

class GtbPolicy : public Policy {
 public:
  /// `buffer_capacity` tasks are buffered per group before a forced flush;
  /// SIZE_MAX buffers until the barrier (Max Buffer flavor).
  explicit GtbPolicy(std::size_t buffer_capacity, bool max_buffer = false);

  [[nodiscard]] const char* name() const noexcept override {
    return max_buffer_ ? "GTB(MaxBuffer)" : "GTB";
  }

  void on_spawn(const TaskPtr& task, IssueSink& sink) override;
  void flush(GroupId group, IssueSink& sink) override;
  [[nodiscard]] ExecutionKind decide(const Task& task, unsigned worker_index,
                                     IssueSink& sink) override;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Sorts one group's window, classifies it per Listing 4 and releases all
  /// tasks to the sink.
  void classify_and_release(GroupId group, std::vector<TaskPtr>& window,
                            IssueSink& sink);

  struct Window {
    std::vector<TaskPtr> tasks;
    std::uint64_t flushed = 0;  ///< last flush pass that drained it
  };

  /// Swaps `window`'s tasks into `out` (empty) and refills the slot's
  /// storage from the spare list.
  void take(Window& window, std::vector<TaskPtr>& out) SIGRT_REQUIRES(mutex_);

  const std::size_t capacity_;
  const bool max_buffer_;
  // Guards the windows only; classification runs on swapped-out windows.
  support::Mutex mutex_;
  std::unordered_map<GroupId, Window> buffers_ SIGRT_GUARDED_BY(mutex_);
  /// Drained window storage awaiting reuse (empty, capacity kept).
  std::vector<std::vector<TaskPtr>> spares_ SIGRT_GUARDED_BY(mutex_);
  std::uint64_t flush_passes_ SIGRT_GUARDED_BY(mutex_) = 0;
};

}  // namespace sigrt
