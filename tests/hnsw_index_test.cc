#include "index/hnsw_index.h"

#include <gtest/gtest.h>

#include "index/flat_index.h"
#include "workload/ground_truth.h"
#include "workload/synthetic.h"

namespace harmony {
namespace {

GaussianMixture HnswMixture(size_t n = 2000, size_t dim = 16,
                            size_t components = 8, uint64_t seed = 71) {
  GaussianMixtureSpec spec;
  spec.num_vectors = n;
  spec.dim = dim;
  spec.num_components = components;
  spec.seed = seed;
  auto r = GenerateGaussianMixture(spec);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(HnswIndexTest, EmptyAndValidation) {
  HnswIndex index;
  const float q[4] = {0};
  EXPECT_EQ(index.Search(q, 1, 10).status().code(),
            StatusCode::kFailedPrecondition);
  Dataset d2(2, 2), d3(2, 3);
  ASSERT_TRUE(index.Add(d2.View()).ok());
  EXPECT_FALSE(index.Add(d3.View()).ok());
  EXPECT_FALSE(index.Search(q, 0, 10).ok());

  // Parameters that would break the build (an infinite level multiplier,
  // an empty construction beam) are rejected before any vector is added.
  HnswParams one_link;
  one_link.m = 1;
  HnswIndex bad_m(one_link);
  EXPECT_EQ(bad_m.Add(d2.View()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_m.size(), 0u);
  HnswParams no_beam;
  no_beam.ef_construction = 0;
  HnswIndex bad_ef(no_beam);
  EXPECT_EQ(bad_ef.Add(d2.View()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_ef.size(), 0u);
}

TEST(HnswIndexTest, SingleVector) {
  HnswIndex index;
  Dataset d(1, 4);
  d.MutableRow(0)[0] = 1.0f;
  ASSERT_TRUE(index.Add(d.View()).ok());
  const float q[4] = {1.0f, 0, 0, 0};
  auto r = index.Search(q, 3, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].id, 0);
}

TEST(HnswIndexTest, FindsExactSelf) {
  const GaussianMixture mix = HnswMixture(500, 8, 4, 72);
  HnswIndex index;
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  for (size_t q = 0; q < 20; ++q) {
    auto r = index.Search(mix.vectors.Row(q * 13), 1, 32);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].id, static_cast<int64_t>(q * 13));
    EXPECT_FLOAT_EQ(r.value()[0].distance, 0.0f);
  }
}

TEST(HnswIndexTest, HighRecallVsBruteForce) {
  const GaussianMixture mix = HnswMixture(3000, 24, 12, 73);
  HnswParams params;
  params.m = 16;
  params.ef_construction = 120;
  HnswIndex index(params);
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  auto gt = ComputeGroundTruth(mix.vectors.View(), mix.vectors.View(), 10,
                               Metric::kL2);
  ASSERT_TRUE(gt.ok());
  double recall = 0.0;
  const size_t num_queries = 50;
  for (size_t q = 0; q < num_queries; ++q) {
    auto r = index.Search(mix.vectors.Row(q * 17), 10, 100);
    ASSERT_TRUE(r.ok());
    recall += RecallAtK(r.value(), gt.value()[q * 17], 10);
  }
  EXPECT_GT(recall / static_cast<double>(num_queries), 0.9);
}

TEST(HnswIndexTest, RecallImprovesWithEf) {
  const GaussianMixture mix = HnswMixture(2500, 16, 8, 74);
  HnswIndex index;
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  auto gt = ComputeGroundTruth(mix.vectors.View(), mix.vectors.View(), 10,
                               Metric::kL2);
  ASSERT_TRUE(gt.ok());
  auto mean_recall = [&](size_t ef) {
    double recall = 0.0;
    for (size_t q = 0; q < 40; ++q) {
      auto r = index.Search(mix.vectors.Row(q * 19), 10, ef);
      EXPECT_TRUE(r.ok());
      recall += RecallAtK(r.value(), gt.value()[q * 19], 10);
    }
    return recall / 40.0;
  };
  const double lo = mean_recall(10);
  const double hi = mean_recall(150);
  EXPECT_GE(hi, lo);
  EXPECT_GT(hi, 0.85);
}

TEST(HnswIndexTest, IncrementalAddKeepsWorking) {
  const GaussianMixture mix = HnswMixture(1000, 8, 4, 75);
  HnswIndex index;
  const DatasetView full = mix.vectors.View();
  const DatasetView first(full.data(), 500, full.dim());
  const DatasetView second(full.Row(500), 500, full.dim());
  ASSERT_TRUE(index.Add(first).ok());
  ASSERT_TRUE(index.Add(second).ok());
  EXPECT_EQ(index.size(), 1000u);
  // A vector from the second batch is findable.
  auto r = index.Search(full.Row(700), 1, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].id, 700);
}

TEST(HnswIndexTest, MostEdgesCrossMachinesUnderPartition) {
  // The paper's motivation for avoiding distributed graph traversal: under
  // any hash partition, the overwhelming majority of graph edges connect
  // nodes on different machines, so a beam search hops across the network
  // at nearly every expansion.
  const GaussianMixture mix = HnswMixture(2000, 16, 8, 76);
  HnswIndex index;
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  const auto [cross, total] = index.CrossPartitionEdges(4);
  ASSERT_GT(total, 0u);
  // Random placement makes ~3/4 of edges cross 4 machines.
  EXPECT_GT(static_cast<double>(cross) / static_cast<double>(total), 0.6);
}

TEST(HnswIndexTest, SizeBytesIncludesGraph) {
  const GaussianMixture mix = HnswMixture(500, 8, 4, 77);
  HnswIndex index;
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  EXPECT_GT(index.SizeBytes(), mix.vectors.SizeBytes());
}

TEST(HnswIndexTest, InnerProductMetric) {
  const GaussianMixture mix = HnswMixture(1500, 12, 6, 78);
  HnswParams params;
  params.metric = Metric::kInnerProduct;
  HnswIndex index(params);
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  FlatIndex flat(Metric::kInnerProduct);
  ASSERT_TRUE(flat.Add(mix.vectors.View()).ok());
  double recall = 0.0;
  for (size_t q = 0; q < 30; ++q) {
    auto a = index.Search(mix.vectors.Row(q * 11), 10, 100);
    auto b = flat.Search(mix.vectors.Row(q * 11), 10);
    ASSERT_TRUE(a.ok() && b.ok());
    recall += RecallAtK(a.value(), b.value(), 10);
  }
  EXPECT_GT(recall / 30.0, 0.7);
}

}  // namespace
}  // namespace harmony
