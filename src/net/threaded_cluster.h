#ifndef HARMONY_NET_THREADED_CLUSTER_H_
#define HARMONY_NET_THREADED_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/fault.h"
#include "util/threadpool.h"

namespace harmony {

/// \brief Real-thread cluster: one worker pool per node, each draining a
/// FIFO mailbox of tasks.
///
/// This is the functional twin of SimCluster: the execution engine can run
/// its per-node work as real concurrent tasks (validating that the
/// algorithm is correctly parallelizable and race-free) while SimCluster
/// provides deterministic cost accounting.
///
/// Ordering: a node's mailbox is dequeued in FIFO order. With the default
/// one thread per node tasks therefore start and finish in post order, one
/// at a time, matching the ordering guarantees an MPI rank would see. With
/// `threads_per_node > 1` (HarmonyOptions::threads_per_node) tasks of one
/// node overlap and their start order is up to the scheduler; per-chain
/// ordering is then the caller's job — the coordinator preserves it
/// structurally, posting each group baton's next stage only after the
/// current stage returns (baton passing), so no two stages of one chain are
/// ever in flight together and nothing depends on cross-task start order.
class ThreadedCluster {
 public:
  explicit ThreadedCluster(size_t num_workers, FaultPlan faults = FaultPlan(),
                           size_t threads_per_node = 1);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  size_t num_workers() const { return nodes_.size(); }
  size_t threads_per_node() const { return threads_per_node_; }
  const FaultInjector& faults() const { return faults_; }

  /// Enqueues a task on worker `node`'s mailbox. The mailbox is dequeued
  /// FIFO; with one thread per node tasks also start and complete in post
  /// order.
  void Post(size_t node, std::function<void()> task);

  /// Blocks until every mailbox is empty and every node is idle. Tasks may
  /// Post further tasks (batons); Barrier waits for those too.
  void Barrier();

 private:
  FaultInjector faults_;
  size_t threads_per_node_ = 1;
  std::vector<std::unique_ptr<ThreadPool>> nodes_;
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  std::atomic<int64_t> outstanding_{0};
};

}  // namespace harmony

#endif  // HARMONY_NET_THREADED_CLUSTER_H_
