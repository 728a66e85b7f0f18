#include "net/threaded_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace harmony {
namespace {

TEST(ThreadedClusterTest, RunsPostedTasks) {
  ThreadedCluster cluster(3);
  std::atomic<int> counter{0};
  for (size_t i = 0; i < 60; ++i) {
    cluster.Post(i % 3, [&counter] { counter.fetch_add(1); });
  }
  cluster.Barrier();
  EXPECT_EQ(counter.load(), 60);
}

TEST(ThreadedClusterTest, PerNodeFifoOrdering) {
  ThreadedCluster cluster(2);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    cluster.Post(0, [&order, &mu, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  cluster.Barrier();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadedClusterTest, TasksCanPostContinuations) {
  ThreadedCluster cluster(4);
  std::atomic<int> hops{0};
  // A baton that hops across all four nodes.
  std::function<void(size_t)> hop = [&](size_t node) {
    hops.fetch_add(1);
    if (node + 1 < cluster.num_workers()) {
      cluster.Post(node + 1, [&hop, node] { hop(node + 1); });
    }
  };
  cluster.Post(0, [&hop] { hop(0); });
  cluster.Barrier();
  EXPECT_EQ(hops.load(), 4);
}

TEST(ThreadedClusterTest, BarrierOnIdleClusterReturns) {
  ThreadedCluster cluster(2);
  cluster.Barrier();
  SUCCEED();
}

TEST(ThreadedClusterTest, ReusableAcrossBarriers) {
  ThreadedCluster cluster(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      cluster.Post(i % 2, [&counter] { counter.fetch_add(1); });
    }
    cluster.Barrier();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadedClusterTest, MultiThreadNodesRunAllTasks) {
  ThreadedCluster cluster(3, FaultPlan(), /*threads_per_node=*/4);
  EXPECT_EQ(cluster.threads_per_node(), 4u);
  std::atomic<int> counter{0};
  for (size_t i = 0; i < 120; ++i) {
    cluster.Post(i % 3, [&counter] { counter.fetch_add(1); });
  }
  cluster.Barrier();
  EXPECT_EQ(counter.load(), 120);
}

TEST(ThreadedClusterTest, MultiThreadNodeOverlapsTasksOnOneNode) {
  // Two tasks on the SAME node, each blocking until the other has started:
  // only completable when the node really runs them concurrently. (With
  // one thread per node this would deadlock — which is exactly why chains
  // are baton-passed rather than co-scheduled there.)
  ThreadedCluster cluster(1, FaultPlan(), /*threads_per_node=*/2);
  std::atomic<bool> a_started{false}, b_started{false};
  cluster.Post(0, [&] {
    a_started.store(true);
    while (!b_started.load()) std::this_thread::yield();
  });
  cluster.Post(0, [&] {
    b_started.store(true);
    while (!a_started.load()) std::this_thread::yield();
  });
  cluster.Barrier();
  EXPECT_TRUE(a_started.load());
  EXPECT_TRUE(b_started.load());
}

TEST(ThreadedClusterTest, MultiThreadNodePreservesFifoStartOrder) {
  // One thread per node: tasks run one at a time in post order. With
  // several threads the mailbox still dequeues FIFO, but which pool thread
  // reaches its task first is up to the scheduler, so the only contract
  // there is that every task runs exactly once before Barrier returns.
  // Nothing in the engines depends on start order across a node's threads:
  // each chain or group posts its next stage only after the current one
  // returns.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads_per_node=" << threads);
    ThreadedCluster cluster(1, FaultPlan(), threads);
    std::vector<int> starts;
    std::mutex mu;
    for (int i = 0; i < 100; ++i) {
      cluster.Post(0, [&starts, &mu, i] {
        std::lock_guard<std::mutex> lock(mu);
        starts.push_back(i);
      });
    }
    cluster.Barrier();
    ASSERT_EQ(starts.size(), 100u);
    // Several threads: only the set of started tasks is pinned.
    if (threads > 1) std::sort(starts.begin(), starts.end());
    for (int i = 0; i < 100; ++i) EXPECT_EQ(starts[i], i);
  }
}

TEST(ThreadedClusterTest, MultiThreadNodeBatonContinuations) {
  ThreadedCluster cluster(4, FaultPlan(), /*threads_per_node=*/3);
  std::atomic<int> hops{0};
  std::function<void(size_t, int)> hop = [&](size_t node, int depth) {
    hops.fetch_add(1);
    if (depth > 0) {
      cluster.Post((node + 1) % cluster.num_workers(), [&hop, node, depth] {
        hop((node + 1) % 4, depth - 1);
      });
    }
  };
  for (int c = 0; c < 8; ++c) {
    cluster.Post(c % 4, [&hop, c] { hop(c % 4, 10); });
  }
  cluster.Barrier();
  EXPECT_EQ(hops.load(), 8 * 11);
}

TEST(ThreadedClusterTest, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadedCluster cluster(2);
    for (int i = 0; i < 20; ++i) {
      cluster.Post(i % 2, [&counter] { counter.fetch_add(1); });
    }
  }  // Destructor barriers + joins.
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadedClusterTest, TeardownDoesNotRaceBarrierPrimitives) {
  // Regression: Barrier() can return while the last Post wrapper is still
  // inside its lock/notify tail, so the destructor must join the node
  // pools BEFORE barrier_mu_/barrier_cv_/outstanding_ are destroyed (they
  // are declared after nodes_ and die first). Destroying immediately after
  // posting keeps that window open; tsan flags the old use-after-free.
  for (int iter = 0; iter < 200; ++iter) {
    std::atomic<int> counter{0};
    {
      ThreadedCluster cluster(2, FaultPlan(), /*threads_per_node=*/2);
      for (int i = 0; i < 8; ++i) {
        cluster.Post(i % 2, [&counter] { counter.fetch_add(1); });
      }
    }  // Immediate destruction, no explicit Barrier().
    EXPECT_EQ(counter.load(), 8);
  }
}

}  // namespace
}  // namespace harmony
