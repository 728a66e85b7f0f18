// Tests for the per-tier tune tables (index/kernel_tune.h): the tile
// constants each tier prints, which the CLI's `kernels:` line and the
// benchmark headers carry, and stable resolution. The bit-identity of each
// tier's batch and group kernels is covered by scan_kernel_test.cc.

#include "index/kernel_tune.h"

#include "gtest/gtest.h"
#include "index/scan_kernel.h"

namespace harmony {
namespace {

TEST(DefaultKernelTuneTest, ReproducesTheHistoricalHardCodedShapes) {
  // row_block.query_tile.prefetch per metric. The AVX2 tier blocks IP by 6
  // rows and L2 by 4; AVX-512 blocks both by 8. A tier the host lacks
  // resolves to another one, so only available tiers are pinned.
  const struct {
    KernelTier tier;
    const char* want;
  } cases[] = {
      {KernelTier::kPortable, "portable l2=4.4.2 ip=4.4.2"},
      {KernelTier::kAvx2, "avx2 l2=4.4.2 ip=6.4.2"},
      {KernelTier::kAvx512, "avx512 l2=8.4.2 ip=8.4.2"},
  };
  for (const auto& c : cases) {
    if (!KernelTierAvailable(c.tier)) continue;
    const KernelTuneTable& t = ResolveKernelTune(c.tier);
    EXPECT_EQ(t.tier, c.tier);
    EXPECT_EQ(t.ToString(), c.want);
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

}  // namespace
}  // namespace harmony
