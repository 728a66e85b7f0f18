// Query-group shared scans (PR 3): the ExecOptions::shared_scans toggle
// must be invisible in every result bit — in the simulated engine it only
// switches the bytes-streamed billing, and in the threaded engine the group
// dispatch path is per-member bit-identical to the solo path whenever the
// block orders align. Plus: intra-node parallelism (threads_per_node) cuts
// the simulated makespan without changing results, and the router's
// query-group assignment obeys its documented invariants.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coordinator.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/router.h"
#include "net/fault.h"
#include "test_util.h"
#include "workload/ground_truth.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

struct RunSetup {
  PartitionPlan plan;
  std::vector<WorkerStore> stores;
  PrewarmCache prewarm;
  BatchRouting routing;
};

RunSetup MakeSetup(const SmallWorld& world, size_t machines, size_t b_vec,
                   size_t b_dim, size_t nprobe, size_t group_size,
                   bool with_norms = false) {
  RunSetup setup;
  auto plan = BuildPartitionPlan(world.index, machines, b_vec, b_dim,
                                 ShardAssignment::kGreedyBalanced);
  EXPECT_TRUE(plan.ok());
  setup.plan = std::move(plan).value();
  auto stores = BuildWorkerStores(world.index, setup.plan, with_norms);
  EXPECT_TRUE(stores.ok());
  setup.stores = std::move(stores).value();
  setup.prewarm = PrewarmCache::Build(world.index, 4);
  setup.routing = RouteBatch(world.index, setup.plan,
                             world.workload.queries.View(), nprobe,
                             group_size);
  return setup;
}

void ExpectSameResults(const std::vector<std::vector<Neighbor>>& a,
                       const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].distance, b[q][i].distance)
          << "query " << q << " rank " << i;  // bitwise, not approx
    }
  }
}

/// Runs the simulated engine twice on the same routing — shared_scans on
/// vs off — and asserts everything except the bytes-streamed counter is
/// byte-identical. Returns {bytes_on, bytes_off}.
std::pair<uint64_t, uint64_t> ExpectSimTogglePure(const SmallWorld& world,
                                                  const RunSetup& setup,
                                                  size_t machines,
                                                  ExecOptions opts) {
  opts.shared_scans = true;
  SimCluster on_cluster(machines);
  if (opts.faults.enabled()) on_cluster.SetFaultPlan(opts.faults);
  auto on = ExecuteSimulated(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts,
                             &on_cluster);
  opts.shared_scans = false;
  SimCluster off_cluster(machines);
  if (opts.faults.enabled()) off_cluster.SetFaultPlan(opts.faults);
  auto off = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts,
                              &off_cluster);
  EXPECT_TRUE(on.ok()) << on.status();
  EXPECT_TRUE(off.ok()) << off.status();

  ExpectSameResults(on.value().results, off.value().results);
  EXPECT_EQ(on.value().degraded, off.value().degraded);
  EXPECT_EQ(on.value().prune.dropped_after, off.value().prune.dropped_after);
  EXPECT_EQ(on.value().prune.total_candidates,
            off.value().prune.total_candidates);
  EXPECT_EQ(on.value().query_completion_seconds,
            off.value().query_completion_seconds);
  EXPECT_EQ(on.value().faults.messages_dropped,
            off.value().faults.messages_dropped);
  EXPECT_EQ(on.value().faults.retries, off.value().faults.retries);
  EXPECT_EQ(on.value().faults.blocks_lost, off.value().faults.blocks_lost);
  EXPECT_EQ(on.value().faults.shards_lost, off.value().faults.shards_lost);
  EXPECT_EQ(on_cluster.Makespan(), off_cluster.Makespan());

  const ClusterBreakdown bon = on_cluster.Breakdown();
  const ClusterBreakdown boff = off_cluster.Breakdown();
  EXPECT_EQ(bon.total_bytes, boff.total_bytes);
  EXPECT_EQ(bon.total_messages, boff.total_messages);
  EXPECT_EQ(bon.total_ops, boff.total_ops);
  EXPECT_EQ(bon.compute_seconds, boff.compute_seconds);
  EXPECT_EQ(bon.comm_seconds, boff.comm_seconds);
  return {bon.total_bytes_streamed, boff.total_bytes_streamed};
}

TEST(SharedScanSimTest, ToggleIsByteIdenticalAcrossConfigs) {
  const SmallWorld l2 = MakeSmallWorld(2500, 32, 8, 8, 25);
  const SmallWorld ip = MakeSmallWorld(2500, 32, 8, 8, 25, 0.0, 7,
                                       Metric::kInnerProduct);
  struct Config {
    const SmallWorld* world;
    size_t b_vec;
    size_t b_dim;  // b_vec * b_dim must equal the 4-machine grid
    bool pruning;
    bool pipeline;
    bool batched;
    bool with_norms;
  };
  const Config configs[] = {
      {&l2, 2, 2, true, true, true, false},
      {&l2, 4, 1, true, false, true, false},
      {&l2, 2, 2, false, true, false, false},
      {&ip, 2, 2, true, true, true, true},
  };
  for (const Config& c : configs) {
    RunSetup setup = MakeSetup(*c.world, 4, c.b_vec, c.b_dim, 4,
                               /*group_size=*/4, c.with_norms);
    ExecOptions opts;
    opts.metric = c.world->index.metric();
    opts.k = 10;
    opts.nprobe = 4;
    opts.enable_pruning = c.pruning;
    opts.enable_pipeline = c.pipeline;
    opts.use_batched_kernels = c.batched;
    const auto [bytes_on, bytes_off] =
        ExpectSimTogglePure(*c.world, setup, 4, opts);
    EXPECT_LE(bytes_on, bytes_off);
    EXPECT_GT(bytes_off, 0u);
  }
}

TEST(SharedScanSimTest, ToggleIsByteIdenticalUnderFaults) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.faults.seed = 2024;
  opts.faults.drop_prob = 0.25;
  const auto [bytes_on, bytes_off] = ExpectSimTogglePure(world, setup, 4, opts);
  EXPECT_LE(bytes_on, bytes_off);
}

TEST(SharedScanSimTest, GroupingReducesStreamedBytesOnSkewedWorkload) {
  // Zipf-skewed queries pile onto the same hot IVF lists, so co-probing
  // groups share most row tiles; shared billing must be strictly cheaper.
  const SmallWorld world =
      MakeSmallWorld(2500, 32, 8, 8, 40, /*zipf_theta=*/1.5);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  const auto [bytes_on, bytes_off] = ExpectSimTogglePure(world, setup, 4, opts);
  EXPECT_LT(bytes_on, bytes_off);
}

TEST(SharedScanLanesTest, FourLanesCutSimMakespanWithoutChangingResults) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 8, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 8;
  opts.dynamic_dim_order = false;  // load-aware ordering reads the clocks

  opts.threads_per_node = 1;
  SimCluster serial(4);
  auto one = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &serial);
  opts.threads_per_node = 4;
  SimCluster laned(4);
  auto four = ExecuteSimulated(world.index, setup.plan, setup.stores,
                               setup.prewarm, setup.routing,
                               world.workload.queries.View(), opts, &laned);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_TRUE(four.ok()) << four.status();

  ExpectSameResults(one.value().results, four.value().results);
  EXPECT_LT(laned.Makespan(), serial.Makespan());
  // (total_ops is NOT compared: lanes change which task a node picks next,
  // which shifts prune timing — results are unaffected, op counts are.)
}

TEST(SharedScanThreadedTest, ToggleIsByteIdenticalWithoutPipelineStagger) {
  // With the pipeline stagger off every chain walks blocks 0..B-1, so the
  // group order equals each member's solo order and the group path must
  // reproduce the solo path bit for bit.
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pipeline = false;

  opts.shared_scans = true;
  auto on = ExecuteThreaded(world.index, setup.plan, setup.stores,
                            setup.prewarm, setup.routing,
                            world.workload.queries.View(), opts);
  opts.shared_scans = false;
  auto off = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  ExpectSameResults(on.value().results, off.value().results);
  EXPECT_EQ(on.value().degraded, off.value().degraded);
  // Shared tiles are counted once, so the group path never streams more.
  EXPECT_LE(on.value().bytes_streamed, off.value().bytes_streamed);
  EXPECT_GT(off.value().bytes_streamed, 0u);
}

TEST(SharedScanThreadedTest, GroupPathStreamsFewerBytesOnSkewedWorkload) {
  const SmallWorld world =
      MakeSmallWorld(2500, 32, 8, 8, 40, /*zipf_theta=*/1.5);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pipeline = false;
  opts.enable_pruning = false;  // isolate sharing from prune-timing noise

  opts.shared_scans = true;
  auto on = ExecuteThreaded(world.index, setup.plan, setup.stores,
                            setup.prewarm, setup.routing,
                            world.workload.queries.View(), opts);
  opts.shared_scans = false;
  auto off = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  ExpectSameResults(on.value().results, off.value().results);
  EXPECT_LT(on.value().bytes_streamed, off.value().bytes_streamed);
}

TEST(SharedScanThreadedTest, GroupsAndThreadsMatchSimResults) {
  // Full default pipeline (stagger on): group block orders are anchored at
  // the first member, so non-first members accumulate in a different block
  // order than the sim — results agree as sets, compared by recall like the
  // other threaded-parity suites.
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.dynamic_dim_order = false;
  opts.shared_scans = true;
  opts.threads_per_node = 4;

  SimCluster cluster(4);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &cluster);
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(sim.ok()) << sim.status();
  ASSERT_TRUE(thr.ok()) << thr.status();
  for (size_t q = 0; q < world.workload.queries.size(); ++q) {
    EXPECT_GE(RecallAtK(thr.value().results[q], sim.value().results[q],
                        opts.k),
              0.99)
        << "query " << q;
  }
}

TEST(SharedScanThreadedTest, FourThreadsPerNodeReproduceSerialResults) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pipeline = false;

  opts.threads_per_node = 1;
  auto serial = ExecuteThreaded(world.index, setup.plan, setup.stores,
                                setup.prewarm, setup.routing,
                                world.workload.queries.View(), opts);
  opts.threads_per_node = 4;
  auto parallel = ExecuteThreaded(world.index, setup.plan, setup.stores,
                                  setup.prewarm, setup.routing,
                                  world.workload.queries.View(), opts);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSameResults(serial.value().results, parallel.value().results);
  EXPECT_EQ(serial.value().degraded, parallel.value().degraded);
}

TEST(SharedScanThreadedTest, FilteredDegradedSearchMatchesSim) {
  // The previously-untested combination: label filtering + an injected
  // fault plan + shared scans + multiple threads per node, end to end
  // through the engine (so RouteBatch's group_size plumbing is exercised).
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 20);
  HarmonyOptions options;
  options.mode = Mode::kHarmony;
  options.num_machines = 4;
  options.ivf.nlist = 8;
  options.ivf.seed = 7;
  HarmonyEngine engine(options);
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
  std::vector<int32_t> labels(world.mixture.vectors.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 2);
  }
  ASSERT_TRUE(engine.SetLabels(labels).ok());
  FaultPlan faults;
  faults.seed = 2024;
  faults.drop_prob = 0.25;
  engine.SetFaultPlan(faults);
  engine.SetParallelism(/*threads_per_node=*/4, /*query_group_size=*/4,
                        /*shared_scans=*/true);

  auto sim = engine.SearchBatch(world.workload.queries.View(), 10, 4,
                                /*allowed_label=*/1);
  auto thr = engine.SearchBatchThreaded(
      world.workload.queries.View(), 10, 4, /*allowed_label=*/1);
  ASSERT_TRUE(sim.ok()) << sim.status();
  ASSERT_TRUE(thr.ok()) << thr.status();

  // Fault decisions are plan-pure: identical degraded sets.
  EXPECT_EQ(sim.value().degraded, thr.value().degraded);
  size_t healthy = 0;
  for (size_t q = 0; q < world.workload.queries.size(); ++q) {
    for (const Neighbor& n : thr.value().results[q]) {
      EXPECT_EQ(n.id % 2, 1) << "filtered id leaked, query " << q;
    }
    if (sim.value().degraded[q] != 0) continue;
    ++healthy;
    EXPECT_GE(RecallAtK(thr.value().results[q], sim.value().results[q], 10),
              0.99)
        << "query " << q;
  }
  EXPECT_GT(healthy, 0u);
}

TEST(SharedScanRouterTest, GroupAssignmentInvariants) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 40,
                                          /*zipf_theta=*/1.0);
  auto plan = BuildPartitionPlan(world.index, 4, 2, 2,
                                 ShardAssignment::kGreedyBalanced);
  ASSERT_TRUE(plan.ok());

  const BatchRouting grouped = RouteBatch(world.index, plan.value(),
                                          world.workload.queries.View(), 4,
                                          /*group_size=*/4);
  ASSERT_EQ(grouped.chain_group.size(), grouped.chains.size());
  ASSERT_GT(grouped.num_groups, 0u);

  // Dense first-appearance ids; members share (probe_rank, shard); group
  // size never exceeds the cap.
  std::vector<size_t> count(static_cast<size_t>(grouped.num_groups), 0);
  std::vector<int32_t> rank(static_cast<size_t>(grouped.num_groups), -1);
  std::vector<int32_t> shard(static_cast<size_t>(grouped.num_groups), -1);
  int32_t max_seen = -1;
  for (size_t c = 0; c < grouped.chains.size(); ++c) {
    const int32_t g = grouped.chain_group[c];
    ASSERT_GE(g, 0);
    ASSERT_LT(g, static_cast<int32_t>(grouped.num_groups));
    EXPECT_LE(g, max_seen + 1) << "group ids must appear in order";
    max_seen = std::max(max_seen, g);
    const size_t gi = static_cast<size_t>(g);
    if (count[gi] == 0) {
      rank[gi] = grouped.chains[c].probe_rank;
      shard[gi] = grouped.chains[c].shard;
    } else {
      EXPECT_EQ(rank[gi], grouped.chains[c].probe_rank) << "chain " << c;
      EXPECT_EQ(shard[gi], grouped.chains[c].shard) << "chain " << c;
    }
    ++count[gi];
    EXPECT_LE(count[gi], 4u);
  }
  EXPECT_EQ(max_seen + 1, static_cast<int32_t>(grouped.num_groups));
  // The skewed workload must actually produce some sharing.
  EXPECT_LT(grouped.num_groups, grouped.chains.size());

  // group_size = 1 degenerates to singletons, and grouping never perturbs
  // the chain order itself.
  const BatchRouting solo = RouteBatch(world.index, plan.value(),
                                       world.workload.queries.View(), 4,
                                       /*group_size=*/1);
  EXPECT_EQ(solo.num_groups, solo.chains.size());
  ASSERT_EQ(solo.chains.size(), grouped.chains.size());
  for (size_t c = 0; c < solo.chains.size(); ++c) {
    EXPECT_EQ(solo.chains[c].query, grouped.chains[c].query);
    EXPECT_EQ(solo.chains[c].shard, grouped.chains[c].shard);
    EXPECT_EQ(solo.chains[c].probe_rank, grouped.chains[c].probe_rank);
    EXPECT_EQ(solo.chain_group[c], static_cast<int32_t>(c));
  }
}

}  // namespace
}  // namespace harmony
