// Tests for the per-tier kernel tables (index/kernel_tune.h): each tier's
// fixed shape per metric, stable resolution, and the dispatch the
// execution core records in its plan. The bit-identity of the shapes
// themselves is covered by scan_kernel_test.cc.

#include "index/kernel_tune.h"

#include "gtest/gtest.h"
#include "index/distance.h"
#include "index/scan_kernel.h"

namespace harmony {
namespace {

TEST(DefaultKernelTuneTest, ReproducesTheHistoricalHardCodedShapes) {
  const KernelTuneTable& portable = ResolveKernelTune(KernelTier::kPortable);
  EXPECT_EQ(portable.tier, KernelTier::kPortable);
  for (const Metric m : {Metric::kL2, Metric::kInnerProduct}) {
    EXPECT_EQ(portable.shape(m).row_block, 4u);
    EXPECT_EQ(portable.shape(m).query_tile, 4u);
    EXPECT_EQ(portable.shape(m).prefetch, 2u);
  }
  // The AVX2 tier blocks IP by 6 rows (three accumulator pairs hide the FMA
  // latency of the dot product) and L2 by 4.
  const KernelTuneTable& avx2 = ResolveKernelTune(KernelTier::kAvx2);
  EXPECT_EQ(avx2.l2.row_block, 4u);
  EXPECT_EQ(avx2.ip.row_block, 6u);
  const KernelTuneTable& avx512 = ResolveKernelTune(KernelTier::kAvx512);
  EXPECT_EQ(avx512.l2.row_block, 8u);
  EXPECT_EQ(avx512.ip.row_block, 8u);
  EXPECT_EQ(avx512.ToString(), "avx512 l2=8.4.2 ip=8.4.2");
}

TEST(DefaultKernelTuneTest, DefaultDispatchIsTheProcessTableAtItsDefaults) {
  // Scans outside an execution context (IVF, k-means) run the process-wide
  // kernel table at the kAuto tier's shape.
  const KernelTuneTable& defaults = ResolveKernelTune(KernelTier::kAuto);
  for (const Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    const KernelDispatch d = DefaultDispatch(m);
    EXPECT_EQ(d.table, &ScanKernels());
    EXPECT_TRUE(d.shape == defaults.shape(m));
  }
}

TEST(KernelTuneResolveTest, SameTierResolvesToTheSameCachedTable) {
  // One static table per tier: the reference itself is stable, which is
  // what makes every batch of a process record the same plan.
  const KernelTuneTable& a = ResolveKernelTune(KernelTier::kPortable);
  const KernelTuneTable& b = ResolveKernelTune(KernelTier::kPortable);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.tier, KernelTier::kPortable);
  const KernelTuneTable& c = ResolveKernelTune(KernelTier::kAuto);
  const KernelTuneTable& d = ResolveKernelTune(KernelTier::kAuto);
  EXPECT_EQ(&c, &d);
  EXPECT_EQ(c.tier, ResolveKernelTier(KernelTier::kAuto));
  EXPECT_TRUE(KernelTierAvailable(c.tier));
}

TEST(KernelTuneDispatchTest, DispatchForSelectsTierTableAndMetricShape) {
  KernelTuneTable t;
  t.tier = KernelTier::kPortable;
  t.l2 = KernelShape{8, 2, 4};
  t.ip = KernelShape{6, 8, 0};
  const KernelDispatch d = t.DispatchFor(Metric::kL2);
  ASSERT_NE(d.table, nullptr);
  EXPECT_EQ(d.table, &ScanKernelsFor(KernelTier::kPortable));
  EXPECT_TRUE(d.shape == t.l2);
  // Inner product and cosine share the IP shape.
  EXPECT_TRUE(t.DispatchFor(Metric::kInnerProduct).shape == t.ip);
  EXPECT_TRUE(t.DispatchFor(Metric::kCosine).shape == t.ip);
}

}  // namespace
}  // namespace harmony
