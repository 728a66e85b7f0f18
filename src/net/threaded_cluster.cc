#include "net/threaded_cluster.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace harmony {

ThreadedCluster::ThreadedCluster(size_t num_workers, FaultPlan faults,
                                 size_t threads_per_node)
    : faults_(std::move(faults)),
      threads_per_node_(std::max<size_t>(1, threads_per_node)) {
  HARMONY_CHECK_MSG(num_workers > 0, "cluster needs at least one worker");
  nodes_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    nodes_.push_back(std::make_unique<ThreadPool>(threads_per_node_));
  }
}

ThreadedCluster::~ThreadedCluster() {
  // Wait for in-flight task trees first: a running task may still Post to
  // any node. Then join the pools explicitly, *before* member destruction:
  // Barrier() returns as soon as outstanding_ hits zero, which the last
  // Post wrapper reaches before its lock(barrier_mu_)/notify_all tail, and
  // barrier_mu_/barrier_cv_/outstanding_ (declared after nodes_) would be
  // destroyed first — joining here keeps every worker out of those
  // primitives while they die.
  Barrier();
  nodes_.clear();
}

void ThreadedCluster::Post(size_t node, std::function<void()> task) {
  HARMONY_CHECK(node < nodes_.size());
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  nodes_[node]->Submit([this, task = std::move(task)] {
    task();
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(barrier_mu_);
      barrier_cv_.notify_all();
    }
  });
}

void ThreadedCluster::Barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  barrier_cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace harmony
