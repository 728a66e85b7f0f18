#ifndef HARMONY_UTIL_THREADPOOL_H_
#define HARMONY_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace harmony {

/// \brief Fixed-size worker pool used by the threaded execution engine
/// (ThreadedCluster node pools), parallel k-means training, and
/// ground-truth computation (the paper parallelizes per-node distance work
/// with OpenMP; this pool plays that role).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue before joining: every task Submitted before
  /// destruction — including tasks submitted *by running tasks* while the
  /// destructor waits — is executed, never discarded. Production code
  /// (baton-passing in ThreadedCluster) relies on this: a dropped
  /// continuation would strand a chain. Destruction must not race with
  /// concurrent Submit/Wait calls from other threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks are dequeued in FIFO order (with one thread they
  /// also start and complete in FIFO order). Tasks must not throw. Tasks may Submit
  /// further tasks, including onto this same pool; they must not call
  /// Wait() on it (a single-thread pool would deadlock).
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running. Tasks
  /// submitted while Wait blocks (by other threads or by running tasks)
  /// extend the wait. Must not be called from inside a pool task.
  void Wait();

  /// Runs `fn(i)` for i in [0, n), partitioned across the pool, and waits
  /// (same caveats as Wait). Falls back to inline execution when the pool
  /// has a single thread, so single-threaded runs add no synchronization.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Worker count, fixed at construction; always >= 1.
  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace harmony

#endif  // HARMONY_UTIL_THREADPOOL_H_
