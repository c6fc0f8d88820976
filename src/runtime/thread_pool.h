#ifndef PLANORDER_RUNTIME_THREAD_POOL_H_
#define PLANORDER_RUNTIME_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace planorder::runtime {

/// A fixed-size worker pool with a shared FIFO task queue. Tasks are opaque
/// thunks; completion is tracked per batch by TaskGroup, not by the pool
/// itself. The destructor drains the queue (every submitted task still runs)
/// and joins the workers, so a pool can be stack-allocated around a batch of
/// work.
///
/// The pool is the concurrency substrate of the resilient source-access
/// runtime: parallel dependent-join partitions (see SourceRuntime) and any
/// future parallel work (plan evaluation sharding, statistics estimation) go
/// through here rather than spawning ad-hoc threads.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Never blocks (unbounded queue); safe from any thread,
  /// including from inside a running task.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Joins a batch of tasks submitted to a ThreadPool: Submit() forwards to the
/// pool and counts the task pending; Wait() blocks until every submitted task
/// has finished. A TaskGroup may be reused for consecutive batches, but
/// Submit() must not race with Wait() returning (one batch at a time per
/// group).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  /// Waits for any still-pending tasks (a TaskGroup never abandons work).
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` to the pool as part of this batch.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every task submitted so far has completed.
  void Wait() EXCLUDES(mu_);

 private:
  ThreadPool* pool_;
  Mutex mu_;
  CondVar cv_;
  int pending_ GUARDED_BY(mu_) = 0;
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_THREAD_POOL_H_
