#include "core/engine.h"

#include <gtest/gtest.h>

#include "index/flat_index.h"
#include "test_util.h"
#include "workload/ground_truth.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

HarmonyOptions BaseOptions(Mode mode, size_t machines = 4, size_t nlist = 8) {
  HarmonyOptions opts;
  opts.mode = mode;
  opts.num_machines = machines;
  opts.ivf.nlist = nlist;
  opts.ivf.seed = 7;
  return opts;
}

TEST(EngineTest, LifecycleErrors) {
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  EXPECT_EQ(engine.SearchBatch(world.workload.queries.View(), 5, 2)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  EXPECT_EQ(engine.Build(world.mixture.vectors.View()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.SearchBatch(world.workload.queries.View(), 0, 2).ok());
  EXPECT_FALSE(engine.SearchBatch(world.workload.queries.View(), 5, 0).ok());
  Dataset empty(0, 16);
  EXPECT_FALSE(engine.SearchBatch(empty.View(), 5, 2).ok());
}

TEST(EngineTest, BuildRecordsAllThreeStages) {
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  EXPECT_GT(engine.build_stats().train_seconds, 0.0);
  EXPECT_GT(engine.build_stats().add_seconds, 0.0);
  EXPECT_GT(engine.build_stats().preassign_seconds, 0.0);
}

class EngineModeSweep : public ::testing::TestWithParam<Mode> {};

TEST_P(EngineModeSweep, SearchProducesHighRecallVsIvfOracle) {
  const Mode mode = GetParam();
  HarmonyOptions opts =
      BaseOptions(mode, mode == Mode::kSingleNode ? 1 : 4);
  HarmonyEngine engine(opts);
  SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 20, 0.0, 7);
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto result = engine.SearchBatch(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().results.size(), 20u);
  // The engine shares the IVF clustering seed with the oracle index.
  for (size_t q = 0; q < 20; ++q) {
    auto oracle = engine.index().Search(world.workload.queries.Row(q), 10, 4);
    ASSERT_TRUE(oracle.ok());
    EXPECT_GE(RecallAtK(result.value().results[q], oracle.value(), 10), 0.9)
        << ModeToString(mode) << " query " << q;
  }
  EXPECT_GT(result.value().stats.qps, 0.0);
  EXPECT_GT(result.value().stats.makespan_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineModeSweep,
                         ::testing::Values(Mode::kHarmony, Mode::kHarmonyVector,
                                           Mode::kHarmonyDimension,
                                           Mode::kSingleNode,
                                           Mode::kAuncelLike));

TEST(EngineTest, PlanShapeMatchesMode) {
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 15);
  {
    HarmonyEngine engine(BaseOptions(Mode::kHarmonyVector));
    ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
    EXPECT_EQ(engine.plan().num_vec_shards, 4u);
    EXPECT_EQ(engine.plan().num_dim_blocks, 1u);
  }
  {
    HarmonyEngine engine(BaseOptions(Mode::kHarmonyDimension));
    ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
    EXPECT_EQ(engine.plan().num_vec_shards, 1u);
    EXPECT_EQ(engine.plan().num_dim_blocks, 4u);
  }
}

TEST(EngineTest, FourNodeHarmonyFasterThanSingleNode) {
  SmallWorld world = MakeSmallWorld(4000, 32, 8, 8, 40);
  HarmonyEngine single(BaseOptions(Mode::kSingleNode, 1));
  HarmonyEngine multi(BaseOptions(Mode::kHarmony, 4));
  ASSERT_TRUE(single.Build(world.mixture.vectors.View()).ok());
  ASSERT_TRUE(multi.Build(world.mixture.vectors.View()).ok());
  auto r1 = single.SearchBatch(world.workload.queries.View(), 10, 4);
  auto r4 = multi.SearchBatch(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(r1.ok() && r4.ok());
  EXPECT_GT(r4.value().stats.qps, r1.value().stats.qps * 1.5);
}

TEST(EngineTest, PruningAblationReducesOps) {
  SmallWorld world = MakeSmallWorld(3000, 32, 8, 8, 30);
  HarmonyOptions on = BaseOptions(Mode::kHarmonyDimension);
  HarmonyOptions off = on;
  off.enable_pruning = false;
  HarmonyEngine e_on(on), e_off(off);
  ASSERT_TRUE(e_on.Build(world.mixture.vectors.View()).ok());
  ASSERT_TRUE(e_off.Build(world.mixture.vectors.View()).ok());
  auto r_on = e_on.SearchBatch(world.workload.queries.View(), 10, 4);
  auto r_off = e_off.SearchBatch(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(r_on.ok() && r_off.ok());
  EXPECT_LT(r_on.value().stats.breakdown.total_ops,
            r_off.value().stats.breakdown.total_ops);
  // Same results regardless (sound pruning).
  for (size_t q = 0; q < 10; ++q) {
    EXPECT_GE(RecallAtK(r_on.value().results[q], r_off.value().results[q], 10),
              0.99);
  }
}

TEST(EngineTest, SkewedLoadHurtsVectorModeMoreThanHarmony) {
  SmallWorld world = MakeSmallWorld(4000, 32, 16, 16, 60, /*zipf_theta=*/2.5);
  HarmonyOptions vec_opts = BaseOptions(Mode::kHarmonyVector, 4, 16);
  HarmonyOptions har_opts = BaseOptions(Mode::kHarmony, 4, 16);
  har_opts.alpha = 20.0;
  HarmonyEngine vec(vec_opts), har(har_opts);
  ASSERT_TRUE(vec.Build(world.mixture.vectors.View()).ok());
  ASSERT_TRUE(har.Build(world.mixture.vectors.View()).ok());
  auto rv = vec.SearchBatch(world.workload.queries.View(), 10, 2);
  auto rh = har.SearchBatch(world.workload.queries.View(), 10, 2);
  ASSERT_TRUE(rv.ok() && rh.ok());
  EXPECT_GT(rh.value().stats.qps, rv.value().stats.qps);
}

TEST(EngineTest, IndexMemorySmallerPerNodeThanSingleNode) {
  SmallWorld world = MakeSmallWorld(3000, 32, 8, 8, 10);
  HarmonyEngine single(BaseOptions(Mode::kSingleNode, 1));
  HarmonyEngine multi(BaseOptions(Mode::kHarmonyVector, 4));
  ASSERT_TRUE(single.Build(world.mixture.vectors.View()).ok());
  ASSERT_TRUE(multi.Build(world.mixture.vectors.View()).ok());
  const MemoryStats m1 = single.IndexMemory();
  const MemoryStats m4 = multi.IndexMemory();
  // Per-node footprint of the distributed index ~ 1/4 of the monolith.
  EXPECT_LT(m4.index_bytes_max_node, m1.index_bytes_max_node / 2);
  // Total payload is conserved (vector mode adds no norms, ids equal).
  EXPECT_NEAR(static_cast<double>(m4.index_bytes_total),
              static_cast<double>(m1.index_bytes_total),
              0.05 * static_cast<double>(m1.index_bytes_total));
}

TEST(EngineTest, ThreadedSearchMatchesSimulated) {
  SmallWorld world = MakeSmallWorld(2000, 24, 8, 8, 15);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto sim = engine.SearchBatch(world.workload.queries.View(), 10, 3);
  auto thr = engine.SearchBatchThreaded(world.workload.queries.View(), 10, 3);
  ASSERT_TRUE(sim.ok() && thr.ok());
  for (size_t q = 0; q < 15; ++q) {
    EXPECT_GE(RecallAtK(thr.value().results[q], sim.value().results[q], 10),
              0.9);
  }
}

TEST(EngineTest, StatsExposePerNodeLoads) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 10);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto result = engine.SearchBatch(world.workload.queries.View(), 10, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.node_compute_seconds.size(), 4u);
  EXPECT_GT(result.value().stats.memory.peak_query_bytes, 0u);
}

TEST(EngineTest, LatencyPercentilesOrderedAndBounded) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 25);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto result = engine.SearchBatch(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(result.ok());
  const BatchStats& stats = result.value().stats;
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_LE(stats.latency_p50_seconds, stats.latency_p95_seconds);
  EXPECT_LE(stats.latency_p95_seconds, stats.latency_p99_seconds);
  EXPECT_LE(stats.latency_p99_seconds, stats.latency_max_seconds);
  // Every query completes within the batch makespan (plus fp slack).
  EXPECT_LE(stats.latency_max_seconds, stats.makespan_seconds * (1 + 1e-9));
}

TEST(EngineTest, BuildFromIndexValidation) {
  SmallWorld world = MakeSmallWorld(1000, 16, 4, 8, 5);
  {
    HarmonyEngine engine(BaseOptions(Mode::kHarmony));
    IvfIndex untrained;
    EXPECT_FALSE(engine.BuildFromIndex(std::move(untrained)).ok());
  }
  {
    HarmonyOptions opts = BaseOptions(Mode::kHarmony);
    opts.ivf.metric = Metric::kInnerProduct;  // Mismatch with L2 index.
    HarmonyEngine engine(opts);
    EXPECT_EQ(engine.BuildFromIndex(world.index).code(),
              StatusCode::kInvalidArgument);
  }
  {
    HarmonyEngine engine(BaseOptions(Mode::kHarmony));
    ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
    auto result = engine.SearchBatch(world.workload.queries.View(), 5, 2);
    EXPECT_TRUE(result.ok());
  }
}

// Recall of `result` against the engine's own IVF index at full probe
// (nprobe == nlist, so the oracle is exact over every indexed row).
void ExpectMatchesIndexOracle(const HarmonyEngine& engine,
                              const BatchResult& result,
                              const DatasetView& queries, size_t k,
                              size_t nprobe) {
  for (size_t q = 0; q < queries.size(); ++q) {
    auto oracle = engine.index().Search(queries.Row(q), k, nprobe);
    ASSERT_TRUE(oracle.ok());
    EXPECT_GE(RecallAtK(result.results[q], oracle.value(), k), 0.99)
        << "query " << q;
  }
}

TEST(EngineTest, InsertVectorsIsSearchableBeforeAndAfterMerge) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 10);
  HarmonyEngine engine(BaseOptions(Mode::kHarmonyDimension));
  // Build on the first half, insert the second half afterwards.
  const size_t half = 1000;
  const DatasetView full = world.mixture.vectors.View();
  const DatasetView first(full.data(), half, full.dim());
  const DatasetView second(full.Row(half), full.size() - half, full.dim());
  const DatasetView queries = world.workload.queries.View();
  ASSERT_TRUE(engine.Build(first).ok());
  ASSERT_TRUE(engine.InsertVectors(second).ok());
  EXPECT_EQ(engine.IdSpan(), 2000u);
  EXPECT_EQ(engine.pending_delta_rows(), 1000u);

  // Buffered in the delta: searchable before the merge.
  auto before = engine.SearchBatch(queries, 10, 8);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.MergeUpdates().ok());
  EXPECT_EQ(engine.index().num_vectors(), 2000u);
  EXPECT_EQ(engine.pending_delta_rows(), 0u);
  auto after = engine.SearchBatch(queries, 10, 8);
  ASSERT_TRUE(after.ok());

  // Full-probe search through the engine must agree with the merged index
  // oracle on both sides of the merge — proving the delta epoch and the
  // rebuilt worker stores both absorbed the inserts.
  ExpectMatchesIndexOracle(engine, before.value(), queries, 10, 8);
  ExpectMatchesIndexOracle(engine, after.value(), queries, 10, 8);
}

TEST(EngineTest, InsertVectorsWithNormsMetric) {
  SmallWorld world =
      MakeSmallWorld(1500, 16, 4, 8, 8, 0.0, 7, Metric::kInnerProduct);
  HarmonyOptions opts = BaseOptions(Mode::kHarmonyDimension);
  opts.ivf.metric = Metric::kInnerProduct;
  HarmonyEngine engine(opts);
  const DatasetView full = world.mixture.vectors.View();
  const DatasetView first(full.data(), 1000, full.dim());
  const DatasetView second(full.Row(1000), full.size() - 1000, full.dim());
  const DatasetView queries = world.workload.queries.View();
  ASSERT_TRUE(engine.Build(first).ok());
  ASSERT_TRUE(engine.InsertVectors(second).ok());
  auto before = engine.SearchBatch(queries, 5, 8);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.MergeUpdates().ok());
  EXPECT_EQ(engine.index().num_vectors(), 1500u);
  auto after = engine.SearchBatch(queries, 5, 8);
  ASSERT_TRUE(after.ok());
  ExpectMatchesIndexOracle(engine, before.value(), queries, 5, 8);
  ExpectMatchesIndexOracle(engine, after.value(), queries, 5, 8);
}

TEST(EngineTest, InsertVectorsValidation) {
  SmallWorld world = MakeSmallWorld(1000, 16, 4, 8, 5);
  HarmonyEngine unbuilt(BaseOptions(Mode::kHarmony));
  EXPECT_EQ(unbuilt.InsertVectors(world.mixture.vectors.View()).code(),
            StatusCode::kFailedPrecondition);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  Dataset wrong_dim(3, 8);
  EXPECT_EQ(engine.InsertVectors(wrong_dim.View()).code(),
            StatusCode::kInvalidArgument);
  Dataset empty(0, 16);
  EXPECT_TRUE(engine.InsertVectors(empty.View()).ok());
  EXPECT_EQ(engine.IdSpan(), 1000u);
  EXPECT_EQ(engine.update_log().pending(), 0u);
}

TEST(EngineTest, FilteredSearchHonorsLabels) {
  SmallWorld world = MakeSmallWorld(2500, 16, 4, 8, 15);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  // Two tenants: even ids are tenant 0, odd ids tenant 1.
  std::vector<int32_t> labels(world.mixture.vectors.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 2);
  }
  ASSERT_TRUE(engine.SetLabels(labels).ok());

  auto result =
      engine.SearchBatch(world.workload.queries.View(), 10, 8, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t q = 0; q < 15; ++q) {
    ASSERT_FALSE(result.value().results[q].empty());
    for (const Neighbor& n : result.value().results[q]) {
      EXPECT_EQ(n.id % 2, 1) << "query " << q;
    }
  }

  // Oracle: brute force restricted to tenant 1 at full probe.
  FlatIndex flat;
  std::vector<int64_t> odd_rows;
  for (size_t i = 1; i < world.mixture.vectors.size(); i += 2) {
    odd_rows.push_back(static_cast<int64_t>(i));
  }
  const Dataset odd = world.mixture.vectors.Gather(odd_rows);
  ASSERT_TRUE(flat.Add(odd.View()).ok());
  for (size_t q = 0; q < 15; ++q) {
    auto oracle = flat.Search(world.workload.queries.Row(q), 10);
    ASSERT_TRUE(oracle.ok());
    // Map oracle local row ids back to global odd ids.
    std::vector<Neighbor> mapped;
    for (const Neighbor& n : oracle.value()) {
      mapped.push_back({odd_rows[static_cast<size_t>(n.id)], n.distance});
    }
    EXPECT_GE(RecallAtK(result.value().results[q], mapped, 10), 0.99)
        << "query " << q;
  }
}

TEST(EngineTest, FilteredSearchValidation) {
  SmallWorld world = MakeSmallWorld(1000, 16, 4, 8, 5);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  // Filtering before SetLabels fails, on both engines.
  EXPECT_EQ(engine.SearchBatch(world.workload.queries.View(), 5, 2, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.SearchBatchThreaded(world.workload.queries.View(), 5, 2, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Wrong label count fails.
  EXPECT_EQ(engine.SetLabels(std::vector<int32_t>(3, 0)).code(),
            StatusCode::kInvalidArgument);
  // Stale labels after inserts fail.
  ASSERT_TRUE(
      engine.SetLabels(std::vector<int32_t>(1000, 0)).ok());
  Dataset more(4, 16);
  ASSERT_TRUE(engine.InsertVectors(more.View()).ok());
  EXPECT_EQ(engine.SearchBatch(world.workload.queries.View(), 5, 2, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.SearchBatchThreaded(world.workload.queries.View(), 5, 2, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, FilteredSearchNoMatchesGivesEmptyResults) {
  SmallWorld world = MakeSmallWorld(1000, 16, 4, 8, 5);
  HarmonyEngine engine(BaseOptions(Mode::kHarmony));
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  ASSERT_TRUE(engine.SetLabels(std::vector<int32_t>(1000, 7)).ok());
  auto result =
      engine.SearchBatch(world.workload.queries.View(), 5, 2, 99);
  ASSERT_TRUE(result.ok());
  for (const auto& neighbors : result.value().results) {
    EXPECT_TRUE(neighbors.empty());
  }
}

}  // namespace
}  // namespace harmony
