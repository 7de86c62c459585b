#include "core/policy_gtb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/group.hpp"

namespace sigrt {

GtbPolicy::GtbPolicy(std::size_t buffer_capacity, bool max_buffer)
    : capacity_(max_buffer ? SIZE_MAX : std::max<std::size_t>(1, buffer_capacity)),
      max_buffer_(max_buffer) {}

void GtbPolicy::take(Window& window, std::vector<TaskPtr>& out) {
  out.swap(window.tasks);
  if (!spares_.empty()) {
    window.tasks.swap(spares_.back());
    spares_.pop_back();
  }
}

void GtbPolicy::on_spawn(const TaskPtr& task, IssueSink& sink) {
  // Buffer under the lock; classify a full window outside it (see the
  // header's thread-safety note).
  std::vector<TaskPtr> window;
  {
    support::MutexLock lock(mutex_);
    Window& buffer = buffers_[task->group];
    buffer.tasks.push_back(task);
    if (buffer.tasks.size() >= capacity_) take(buffer, window);
  }
  if (window.empty()) return;
  classify_and_release(task->group, window, sink);  // leaves window cleared
  support::MutexLock lock(mutex_);
  spares_.push_back(std::move(window));
}

void GtbPolicy::flush(GroupId group, IssueSink& sink) {
  // Take one targeted window at a time under the lock, then classify and
  // release it without the lock.  Each window is taken at most once per
  // call (its `flushed` pass), so spawns racing the barrier cannot keep a
  // flush looping; one that lands after its window was taken stays
  // buffered for the next flush.  The same task is never released twice,
  // and the flushing thread's own spawns (which happened-before its
  // barrier) are always included.
  std::vector<TaskPtr> window;
  std::uint64_t pass = 0;
  for (;;) {
    GroupId gid = group;
    {
      support::MutexLock lock(mutex_);
      if (window.capacity() != 0) spares_.push_back(std::move(window));
      if (pass == 0) pass = ++flush_passes_;
      Window* next = nullptr;
      for (auto& [id, w] : buffers_) {
        if ((group == kAllGroups || id == group) && !w.tasks.empty() &&
            w.flushed != pass) {
          gid = id;
          next = &w;
          break;
        }
      }
      if (next == nullptr) return;
      next->flushed = pass;
      take(*next, window);
    }
    classify_and_release(gid, window, sink);
  }
}

void GtbPolicy::classify_and_release(GroupId group, std::vector<TaskPtr>& window,
                                     IssueSink& sink) {
  if (window.empty()) return;
  const double ratio = sink.group_ref(group).ratio();

  // Sort by decreasing significance, ties in spawn (id) order, which makes
  // GTB fully deterministic (§4.2 relies on this for Kmeans).  Ids are
  // unique, so an in-place std::sort gives the stable order without
  // std::stable_sort's temporary buffer — a heap allocation per window.
  std::sort(window.begin(), window.end(),
            [](const TaskPtr& a, const TaskPtr& b) {
              return a->significance != b->significance
                         ? a->significance > b->significance
                         : a->id < b->id;
            });

  // Listing 4: `if (i < group_ratio * task_count) issue_accurate_task(...)`.
  const double quota = ratio * static_cast<double>(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    Task& t = *window[i];
    if (t.significance >= 1.0f) {
      t.kind = ExecutionKind::Accurate;  // special value: unconditional
    } else if (t.significance <= 0.0f) {
      t.kind = ExecutionKind::Approximate;  // special value: unconditional
    } else {
      t.kind = static_cast<double>(i) < quota ? ExecutionKind::Accurate
                                              : ExecutionKind::Approximate;
    }
  }
  // Re-issue in spawn order (ids ascend with spawn order) so worker queues
  // observe the program's creation order, as in the paper's runtime.  The
  // whole window goes out as one bulk release: the runtime turns it into a
  // single batched scheduler enqueue (one publish per target queue instead
  // of one per task).
  std::sort(window.begin(), window.end(),
            [](const TaskPtr& a, const TaskPtr& b) { return a->id < b->id; });
  sink.release_bulk(window);
  window.clear();
}

ExecutionKind GtbPolicy::decide(const Task& task, unsigned /*worker_index*/,
                                IssueSink& /*sink*/) {
  // GTB classifies every task before releasing it; reaching here would mean
  // a task bypassed the buffer.
  assert(task.kind != ExecutionKind::Undecided &&
         "GTB task reached a worker unclassified");
  return task.kind == ExecutionKind::Undecided ? ExecutionKind::Accurate
                                               : task.kind;
}

}  // namespace sigrt
