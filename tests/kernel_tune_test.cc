// Tests for the startup kernel micro-autotuner (index/kernel_tune.h):
// bucketing, profile round-trips, deterministic resolution/caching, and the
// dispatch the execution core records in its plan. The bit-identity of the
// shapes themselves is covered by scan_kernel_test.cc — here we only care
// that the *choice* is deterministic and replayable.

#include "index/kernel_tune.h"

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "index/distance.h"
#include "index/scan_kernel.h"

namespace harmony {
namespace {

TEST(WidthBucketTest, BoundariesMatchTheDocumentedRanges) {
  EXPECT_EQ(KernelTuneTable::WidthBucket(1), 0u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(15), 0u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(16), 1u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(31), 1u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(32), 2u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(63), 2u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(64), 3u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(127), 3u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(128), 4u);
  EXPECT_EQ(KernelTuneTable::WidthBucket(4096), 4u);
}

TEST(DefaultKernelTuneTest, ReproducesTheHistoricalHardCodedShapes) {
  const KernelTuneTable portable = DefaultKernelTune(KernelTier::kPortable);
  EXPECT_EQ(portable.tier, KernelTier::kPortable);
  for (size_t m = 0; m < 2; ++m) {
    for (size_t b = 0; b < KernelTuneTable::kNumBuckets; ++b) {
      EXPECT_EQ(portable.shapes[m][b].row_block, 4u);
      EXPECT_EQ(portable.shapes[m][b].query_tile, 4u);
      EXPECT_EQ(portable.shapes[m][b].prefetch, 2u);
    }
  }
  // The AVX2 tier blocks IP by 6 rows (three accumulator pairs hide the FMA
  // latency of the dot product) and L2 by 4.
  const KernelTuneTable avx2 = DefaultKernelTune(KernelTier::kAvx2);
  EXPECT_EQ(avx2.shapes[0][4].row_block, 4u);
  EXPECT_EQ(avx2.shapes[1][4].row_block, 6u);
  const KernelTuneTable avx512 = DefaultKernelTune(KernelTier::kAvx512);
  EXPECT_EQ(avx512.shapes[0][4].row_block, 8u);
  EXPECT_EQ(avx512.shapes[1][4].row_block, 8u);
}

TEST(DefaultKernelTuneTest, DefaultDispatchIsTheProcessTableAtItsDefaults) {
  // Scans outside an execution context (IVF, k-means) run the process-wide
  // table at its tier's default shape, never waiting on the autotuner.
  const KernelTuneTable defaults = DefaultKernelTune(KernelTier::kAuto);
  for (const Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (const size_t w : {size_t{8}, size_t{24}, size_t{128}}) {
      const KernelDispatch d = DefaultDispatch(m, w);
      EXPECT_EQ(d.table, &ScanKernels());
      EXPECT_TRUE(d.shape == defaults.shape(m, w));
    }
  }
}

TEST(KernelTuneProfileTest, ToStringParseRoundTripsExactly) {
  for (const KernelTier tier :
       {KernelTier::kPortable, KernelTier::kAvx2, KernelTier::kAvx512}) {
    KernelTuneTable t = DefaultKernelTune(tier);
    // Perturb a few shapes so the round-trip exercises non-default values.
    t.shapes[0][2] = KernelShape{8, 2, 0};
    t.shapes[1][4] = KernelShape{6, 8, 8};
    KernelTuneTable parsed;
    ASSERT_TRUE(KernelTuneTable::Parse(t.ToString(), &parsed)) << t.ToString();
    EXPECT_TRUE(parsed == t) << t.ToString() << " vs " << parsed.ToString();
  }
}

TEST(KernelTuneProfileTest, ParseRejectsMalformedProfiles) {
  KernelTuneTable out;
  EXPECT_FALSE(KernelTuneTable::Parse("", &out));
  EXPECT_FALSE(KernelTuneTable::Parse("auto l2=4.4.2 ip=4.4.2", &out));
  EXPECT_FALSE(KernelTuneTable::Parse("bogus l2=4.4.2 ip=4.4.2", &out));
  // Too few buckets.
  EXPECT_FALSE(KernelTuneTable::Parse("portable l2=4.4.2 ip=4.4.2", &out));
  // Out-of-range row block.
  std::string bad = DefaultKernelTune(KernelTier::kPortable).ToString();
  bad.replace(bad.find("4.4.2"), 5, "99.4.2");
  EXPECT_FALSE(KernelTuneTable::Parse(bad, &out));
}

TEST(KernelTuneResolveTest, SameTierResolvesToTheSameCachedTable) {
  // The process-wide table is measured once and cached: the pointer itself
  // is stable, which is what makes every batch of a process record the
  // same plan.
  const KernelTuneTable& a = ResolveKernelTune(KernelTier::kPortable);
  const KernelTuneTable& b = ResolveKernelTune(KernelTier::kPortable);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.tier, KernelTier::kPortable);
  const KernelTuneTable& c = ResolveKernelTune(KernelTier::kAuto);
  const KernelTuneTable& d = ResolveKernelTune(KernelTier::kAuto);
  EXPECT_EQ(&c, &d);
  EXPECT_NE(c.tier, KernelTier::kAuto);
  EXPECT_TRUE(KernelTierAvailable(c.tier));
}

TEST(KernelTuneResolveTest, MeasuredShapesStayInsideTheCandidateGrids) {
  const KernelTuneTable t = MeasureKernelTune(KernelTier::kAuto);
  EXPECT_NE(t.tier, KernelTier::kAuto);
  for (size_t m = 0; m < 2; ++m) {
    for (size_t b = 0; b < KernelTuneTable::kNumBuckets; ++b) {
      const KernelShape s = t.shapes[m][b];
      EXPECT_TRUE(s.row_block == 4 || s.row_block == 6 || s.row_block == 8)
          << static_cast<int>(s.row_block);
      EXPECT_TRUE(s.query_tile == 2 || s.query_tile == 4 || s.query_tile == 8)
          << static_cast<int>(s.query_tile);
      EXPECT_TRUE(s.prefetch == 0 || s.prefetch == 2 || s.prefetch == 4 ||
                  s.prefetch == 8)
          << static_cast<int>(s.prefetch);
    }
  }
  // Bucket 0 sits below every SIMD cutover and is never measured.
  EXPECT_TRUE(t.shapes[0][0] == DefaultKernelTune(t.tier).shapes[0][0]);
}

TEST(KernelTuneDispatchTest, DispatchForSelectsTierTableAndBucketShape) {
  KernelTuneTable t = DefaultKernelTune(KernelTier::kPortable);
  t.shapes[KernelTuneTable::MetricIndex(Metric::kL2)][4] = KernelShape{8, 2, 4};
  const KernelDispatch d = t.DispatchFor(Metric::kL2, 128);
  ASSERT_NE(d.table, nullptr);
  EXPECT_EQ(d.table, &ScanKernelsFor(KernelTier::kPortable));
  EXPECT_EQ(d.shape.row_block, 8u);
  EXPECT_EQ(d.shape.query_tile, 2u);
  EXPECT_EQ(d.shape.prefetch, 4u);
  // A different bucket keeps its own shape.
  const KernelDispatch d2 = t.DispatchFor(Metric::kL2, 8);
  EXPECT_EQ(d2.shape.row_block, 4u);
}

}  // namespace
}  // namespace harmony
