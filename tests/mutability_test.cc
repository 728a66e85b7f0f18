// Epoch-versioned mutable store (docs/mutability.md): insert/delete
// semantics through the delta-shard + tombstone path, bitwise sim/threaded
// parity per store generation, log-replay recovery equivalence, merge
// round-trips, and the acceptance property — recall@10 measured against
// exact ground truth over the live set drifts by at most 0.005 across a
// rank-barrier merge, over several insert/delete/merge cycles.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/ground_truth.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

HarmonyOptions BaseOptions(size_t machines = 4, size_t nlist = 8) {
  HarmonyOptions opts;
  opts.mode = Mode::kHarmony;
  opts.num_machines = machines;
  opts.ivf.nlist = nlist;
  opts.ivf.seed = 7;
  return opts;
}

void ExpectBitIdentical(const std::vector<std::vector<Neighbor>>& a,
                        const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(a[q][i].distance),
                std::bit_cast<uint32_t>(b[q][i].distance))
          << "query " << q << " rank " << i;
    }
  }
}

bool Contains(const std::vector<std::vector<Neighbor>>& results, int64_t id) {
  for (const auto& q : results) {
    for (const Neighbor& n : q) {
      if (n.id == id) return true;
    }
  }
  return false;
}

TEST(MutabilityTest, DeletedIdNeverSurfacesBeforeOrAfterMerge) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 12);
  HarmonyEngine engine(BaseOptions());
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());

  auto before = engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_FALSE(before.value().results[0].empty());
  const int64_t victim = before.value().results[0][0].id;

  ASSERT_TRUE(engine.DeleteVectors({victim}).ok());
  EXPECT_EQ(engine.tombstone_count(), 1u);
  EXPECT_TRUE(engine.IsDeleted(victim));

  // Tombstoned rows are filtered at the rank barrier on both backends.
  auto sim = engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_FALSE(Contains(sim.value().results, victim));
  auto thr = engine.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(thr.ok()) << thr.status();
  EXPECT_FALSE(Contains(thr.value().results, victim));

  // After the merge the row is physically gone (and the bitset dropped).
  ASSERT_TRUE(engine.MergeUpdates().ok());
  EXPECT_EQ(engine.tombstone_count(), 0u);
  EXPECT_FALSE(engine.IsDeleted(victim));
  auto merged = engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_FALSE(Contains(merged.value().results, victim));
}

TEST(MutabilityTest, InsertedVectorIsFindableBeforeAndAfterMerge) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 12);
  HarmonyEngine engine(BaseOptions());
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
  const size_t base = engine.IdSpan();

  // Insert an exact copy of query 0: it must come back as that query's
  // nearest neighbor at distance 0, first from the delta scan (epoch fold),
  // then from the merged frozen store.
  const DatasetView q0(world.workload.queries.Row(0), 1,
                       world.workload.queries.dim());
  ASSERT_TRUE(engine.InsertVectors(q0).ok());
  const int64_t gid = static_cast<int64_t>(base);
  EXPECT_EQ(engine.IdSpan(), base + 1);
  EXPECT_EQ(engine.pending_delta_rows(), 1u);

  for (const bool merged : {false, true}) {
    if (merged) {
      ASSERT_TRUE(engine.MergeUpdates().ok());
      EXPECT_EQ(engine.pending_delta_rows(), 0u);
      EXPECT_EQ(engine.generation(), 1u);
    }
    auto out = engine.SearchBatchPinned(q0, 10, 8);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_FALSE(out.value().results[0].empty());
    EXPECT_EQ(out.value().results[0][0].id, gid)
        << (merged ? "after merge" : "before merge");
    EXPECT_EQ(out.value().results[0][0].distance, 0.0f);
  }
}

TEST(MutabilityTest, SimAndThreadedAreBitwiseIdenticalPerGeneration) {
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 16);
  // Bitwise cross-engine parity needs the exec_parity_test alignment
  // preconditions: pipeline off (both engines walk blocks 0..B-1) and one
  // pipeline batch per chain, so float accumulation order matches exactly.
  HarmonyOptions opts = BaseOptions();
  opts.enable_pipeline = false;
  opts.pipeline_batch = 1 << 20;
  HarmonyEngine engine(opts);
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());

  // Mutate: a handful of inserts (mixture rows re-inserted under new ids)
  // and deletes, all pending — generation 0 with a live delta + tombstones.
  const DatasetView ins(world.mixture.vectors.Row(0), 5,
                        world.mixture.vectors.dim());
  ASSERT_TRUE(engine.InsertVectors(ins).ok());
  ASSERT_TRUE(engine.DeleteVectors({3, 17, 256}).ok());

  for (uint64_t expected_gen : {0u, 1u}) {
    if (expected_gen == 1) {
      ASSERT_TRUE(engine.MergeUpdates().ok());
    }
    ASSERT_EQ(engine.generation(), expected_gen);
    auto sim = engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
    ASSERT_TRUE(sim.ok()) << sim.status();
    auto thr =
        engine.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
    ASSERT_TRUE(thr.ok()) << thr.status();
    ExpectBitIdentical(sim.value().results, thr.value().results);
  }
}

TEST(MutabilityTest, ReplayUpdatesReproducesPreMergeStateBitwise) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 12);
  HarmonyEngine live(BaseOptions());
  ASSERT_TRUE(live.BuildFromIndex(world.index).ok());

  const DatasetView ins(world.mixture.vectors.Row(10), 4,
                        world.mixture.vectors.dim());
  ASSERT_TRUE(live.InsertVectors(ins).ok());
  ASSERT_TRUE(live.DeleteVectors({5, 42}).ok());
  // Delete one of the freshly inserted ids too: replay must reproduce a
  // tombstone on a logged insert.
  ASSERT_TRUE(live.DeleteVectors({static_cast<int64_t>(live.IdSpan()) - 1})
                  .ok());

  HarmonyEngine recovered(BaseOptions());
  ASSERT_TRUE(recovered.BuildFromIndex(world.index).ok());
  ASSERT_TRUE(recovered.ReplayUpdates(live.update_log()).ok());

  EXPECT_EQ(recovered.IdSpan(), live.IdSpan());
  EXPECT_EQ(recovered.tombstone_count(), live.tombstone_count());
  EXPECT_EQ(recovered.pending_delta_rows(), live.pending_delta_rows());

  auto a = live.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  auto b = recovered.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectBitIdentical(a.value().results, b.value().results);
}

TEST(MutabilityTest, InsertThenDeleteInsertsThenMergeRestoresBaseline) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 12);
  HarmonyEngine baseline(BaseOptions());
  ASSERT_TRUE(baseline.BuildFromIndex(world.index).ok());
  auto r0 = baseline.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(r0.ok()) << r0.status();

  HarmonyEngine mutated(BaseOptions());
  ASSERT_TRUE(mutated.BuildFromIndex(world.index).ok());
  const size_t base = mutated.IdSpan();
  const DatasetView ins(world.mixture.vectors.Row(100), 6,
                        world.mixture.vectors.dim());
  ASSERT_TRUE(mutated.InsertVectors(ins).ok());
  std::vector<int64_t> added;
  for (size_t i = 0; i < 6; ++i) added.push_back(static_cast<int64_t>(base + i));
  ASSERT_TRUE(mutated.DeleteVectors(added).ok());
  ASSERT_TRUE(mutated.MergeUpdates().ok());

  // The merge folded the inserts and removed them again: the physical store
  // matches the baseline build, so results are bitwise identical.
  EXPECT_EQ(mutated.index().num_vectors(), world.index.num_vectors());
  auto r1 = mutated.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ExpectBitIdentical(r0.value().results, r1.value().results);
}

TEST(MutabilityTest, ApiGuards) {
  SmallWorld world = MakeSmallWorld(1200, 16, 4, 8, 8);
  HarmonyEngine engine(BaseOptions());
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());

  // Deletes outside the assigned id span are rejected.
  EXPECT_FALSE(engine.DeleteVectors({static_cast<int64_t>(engine.IdSpan())})
                   .ok());
  EXPECT_FALSE(engine.DeleteVectors({-1}).ok());

  // Double delete is a no-op (idempotent tombstone).
  ASSERT_TRUE(engine.DeleteVectors({4}).ok());
  ASSERT_TRUE(engine.DeleteVectors({4}).ok());
  EXPECT_EQ(engine.tombstone_count(), 1u);

  // Wrong-dimension inserts are rejected before touching the log.
  const size_t pending_before = engine.update_log().pending();
  Dataset narrow(1, world.mixture.vectors.dim() / 2);
  EXPECT_FALSE(engine.InsertVectors(narrow.View()).ok());
  EXPECT_EQ(engine.update_log().pending(), pending_before);
}

// The acceptance property: replaying a fixed query workload across several
// insert/delete/merge cycles, recall@10 against exact ground truth over the
// live set moves by at most 0.005 across each merge (the merge relocates
// rows into rebuilt blocks but must not change what the search finds).
TEST(MutabilityTest, RecallDriftAcrossMergeCyclesWithinBound) {
  constexpr size_t kK = 10;
  constexpr size_t kNprobe = 6;
  constexpr size_t kCycles = 3;
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 20);
  // A disjoint pool of insertable vectors from the same distribution.
  GaussianMixtureSpec pool_spec;
  pool_spec.num_vectors = 300;
  pool_spec.dim = 32;
  pool_spec.num_components = 8;
  pool_spec.seed = 91;
  auto pool = GenerateGaussianMixture(pool_spec);
  ASSERT_TRUE(pool.ok());

  HarmonyEngine engine(BaseOptions());
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
  const size_t base = engine.IdSpan();

  // Global-id -> vector bookkeeping for live-set ground truth.
  std::vector<const float*> row_of;
  for (size_t i = 0; i < base; ++i) {
    row_of.push_back(world.mixture.vectors.Row(i));
  }

  Rng rng(0xD1CEu);
  size_t next_pool_row = 0;
  auto live_recall = [&](const char* what) -> double {
    Dataset live(std::vector<float>(), world.mixture.vectors.dim());
    std::vector<int64_t> live_ids;
    for (size_t gid = 0; gid < engine.IdSpan(); ++gid) {
      if (engine.IsDeleted(static_cast<int64_t>(gid))) continue;
      EXPECT_TRUE(live.Append(row_of[gid], live.dim()).ok());
      live_ids.push_back(static_cast<int64_t>(gid));
    }
    auto gt = ComputeGroundTruth(live.View(), world.workload.queries.View(),
                                 kK, Metric::kL2);
    EXPECT_TRUE(gt.ok()) << gt.status();
    auto truth = std::move(gt).value();
    for (auto& q : truth) {
      for (Neighbor& n : q) n.id = live_ids[static_cast<size_t>(n.id)];
    }
    auto out =
        engine.SearchBatchPinned(world.workload.queries.View(), kK, kNprobe);
    EXPECT_TRUE(out.ok()) << out.status() << " (" << what << ")";
    return MeanRecallAtK(out.value().results, truth, kK);
  };

  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    // ~40 inserts from the pool, ~15 deletes of random live ids. Deleted
    // rows stay deleted across cycles (ids are never reused).
    const DatasetView ins(pool.value().vectors.Row(next_pool_row), 40,
                          pool.value().vectors.dim());
    ASSERT_TRUE(engine.InsertVectors(ins).ok());
    for (size_t i = 0; i < 40; ++i) {
      row_of.push_back(pool.value().vectors.Row(next_pool_row + i));
    }
    next_pool_row += 40;
    ASSERT_EQ(row_of.size(), engine.IdSpan());

    size_t deleted = 0;
    while (deleted < 15) {
      const int64_t victim = static_cast<int64_t>(
          rng.NextU64() % static_cast<uint64_t>(engine.IdSpan()));
      if (engine.IsDeleted(victim)) continue;
      ASSERT_TRUE(engine.DeleteVectors({victim}).ok());
      ++deleted;
    }
    // Record live membership before the merge clears the bitset.
    std::vector<bool> was_deleted(engine.IdSpan(), false);
    for (size_t gid = 0; gid < engine.IdSpan(); ++gid) {
      was_deleted[gid] = engine.IsDeleted(static_cast<int64_t>(gid));
    }

    const double before = live_recall("before merge");
    ASSERT_TRUE(engine.MergeUpdates().ok());
    EXPECT_EQ(engine.generation(), cycle + 1);

    // Rebuild the same live set for the post-merge measurement (the merge
    // dropped the bitset, so replay the recorded membership).
    Dataset live(std::vector<float>(), world.mixture.vectors.dim());
    std::vector<int64_t> live_ids;
    for (size_t gid = 0; gid < engine.IdSpan(); ++gid) {
      if (was_deleted[gid]) continue;
      ASSERT_TRUE(live.Append(row_of[gid], live.dim()).ok());
      live_ids.push_back(static_cast<int64_t>(gid));
    }
    auto gt = ComputeGroundTruth(live.View(), world.workload.queries.View(),
                                 kK, Metric::kL2);
    ASSERT_TRUE(gt.ok()) << gt.status();
    auto truth = std::move(gt).value();
    for (auto& q : truth) {
      for (Neighbor& n : q) n.id = live_ids[static_cast<size_t>(n.id)];
    }
    auto out =
        engine.SearchBatchPinned(world.workload.queries.View(), kK, kNprobe);
    ASSERT_TRUE(out.ok()) << out.status();
    const double after = MeanRecallAtK(out.value().results, truth, kK);

    EXPECT_LE(std::abs(after - before), 0.005)
        << "cycle " << cycle << ": recall@10 " << before << " -> " << after;
    EXPECT_GE(after, 0.8) << "cycle " << cycle;

    // Unchanged membership: deleted rows must stay gone after the merge.
    for (size_t gid = 0; gid < was_deleted.size(); ++gid) {
      if (!was_deleted[gid]) continue;
      auto check =
          engine.SearchBatchPinned(world.workload.queries.View(), kK, kNprobe);
      ASSERT_TRUE(check.ok());
      EXPECT_FALSE(Contains(check.value().results, static_cast<int64_t>(gid)));
      break;  // One spot check per cycle keeps the test fast.
    }
  }
}

}  // namespace
}  // namespace harmony
