// Per-worker two-phase park/unpark ("eventcount") used by the lock-free
// scheduler to replace the seed's single global sleep mutex.
//
// The lost-wakeup problem: a worker checks the queues, finds nothing, and
// goes to sleep; a producer pushes a task in between and its notification
// finds nobody waiting — the task is stranded.  The seed fixed this by
// taking one global mutex around both the producer's counter bump and the
// sleeper's predicate, serializing every enqueue against every park.
//
// This eventcount fixes it without shared locks, Dekker-style:
//
//   worker                                producer
//   ------                                --------
//   1. prepare_wait(w): state=WAITING     1. publish task (release)
//      + seq_cst fence                       + seq_cst fence
//   2. re-check all queues                2. read worker states
//   3a. found work -> cancel_wait(w)      3. CAS WAITING->SIGNALED, wake w
//   3b. empty -> commit_wait(w): block
//
// The two seq_cst fences guarantee at least one side observes the other:
// either the worker's re-check (2) sees the task, or the producer's state
// read (2) sees WAITING and delivers a wake that commit_wait consumes.
// Each slot has its own mutex+condvar, used only on the slow (actually
// sleeping) path; notifying a running worker is two relaxed-ish atomic
// loads and no syscall.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>

#include "support/mutex.hpp"

namespace sigrt {

class EventCount {
 public:
  explicit EventCount(unsigned slots)
      : count_(slots), slots_(new Slot[slots > 0 ? slots : 1]) {}

  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Phase 1 (waiter): announce intent to sleep.  Must be followed by a
  /// re-check of every wait condition, then cancel_wait() or commit_wait().
  void prepare_wait(unsigned i) noexcept {
    slots_[i].state.store(kWaiting, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Waiter found work during the re-check: revoke the announcement (and
  /// swallow any signal that raced in — the work is visible either way).
  void cancel_wait(unsigned i) noexcept {
    slots_[i].state.exchange(kActive, std::memory_order_acq_rel);
  }

  /// Phase 2 (waiter): block until a signal arrives.  Returns immediately
  /// if one raced in between prepare and commit.
  void commit_wait(unsigned i) {
    Slot& s = slots_[i];
    support::MutexLock lock(s.mutex);
    while (s.state.load(std::memory_order_acquire) == kWaiting) {
      s.cv.wait(lock.native());
    }
    s.state.store(kActive, std::memory_order_release);
  }

  /// Producer: wake worker `i` iff it is parked (or mid-park).  Returns
  /// true when a signal was delivered, false when the worker was active
  /// (it will find the published work on its own).
  bool notify(unsigned i) noexcept {
    Slot& s = slots_[i];
    std::uint32_t expected = kWaiting;
    if (!s.state.compare_exchange_strong(expected, kSignaled,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      return false;
    }
    // Lock/unlock pairs with the waiter's state check under the same mutex
    // in commit_wait: the signal cannot land between that check and the
    // cv.wait it guards.
    { support::MutexLock lock(s.mutex); }
    s.cv.notify_one();
    return true;
  }

  /// Producer/shutdown: wake every parked worker.
  void notify_all() noexcept {
    for (unsigned i = 0; i < count_; ++i) notify(i);
  }

  /// Cheap waiter probe for wake-target selection (racy by design: a false
  /// negative only means the producer skips a CAS it would have lost).
  [[nodiscard]] bool waiting(unsigned i) const noexcept {
    return slots_[i].state.load(std::memory_order_acquire) == kWaiting;
  }

  [[nodiscard]] unsigned size() const noexcept { return count_; }

 private:
  enum : std::uint32_t { kActive = 0, kWaiting = 1, kSignaled = 2 };

  struct alignas(64) Slot {
    std::atomic<std::uint32_t> state{kActive};
    support::Mutex mutex;            // slow path only: actual sleeping
    std::condition_variable cv;
  };

  const unsigned count_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace sigrt
