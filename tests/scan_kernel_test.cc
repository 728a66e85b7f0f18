// Bitwise-parity suite for the batched block-scan kernels
// (index/scan_kernel.h, core/block_scan.cc). The engines' determinism and
// fault-replay guarantees rest on the batched path producing bit-identical
// floats to the historical per-candidate loop, so every comparison here is
// on the raw bit pattern, not EXPECT_FLOAT_EQ.

#include "index/scan_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/block_scan.h"
#include "core/pruning.h"
#include "index/distance.h"
#include "index/kernel_tune.h"
#include "storage/dataset.h"
#include "storage/dim_slice.h"
#include "util/rng.h"

namespace harmony {
namespace {

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

// The fixed shape of `tier` for one metric: what the engines dispatch.
KernelShape DefaultShape(KernelTier tier, bool ip) {
  return ResolveKernelTune(tier).shape(ip ? Metric::kInnerProduct
                                          : Metric::kL2);
}

// Width sweep covering every scalar-tail length, both sides of the AVX2
// width-16 cutover, and the 8/16-lane chunk boundaries up to 1024.
const std::vector<size_t>& Widths() {
  static const std::vector<size_t> w = [] {
    std::vector<size_t> v;
    for (size_t i = 1; i <= 40; ++i) v.push_back(i);
    for (size_t i : {48, 63, 64, 65, 96, 100, 127, 128, 129, 256, 333, 512,
                     777, 1023, 1024}) {
      v.push_back(i);
    }
    return v;
  }();
  return w;
}

TEST(ScanKernelTest, TableIsResolvedOnceAndNamed) {
  const ScanKernelTable& a = ScanKernels();
  const ScanKernelTable& b = ScanKernels();
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(std::strcmp(a.name, "avx512") == 0 ||
              std::strcmp(a.name, "avx2") == 0 ||
              std::strcmp(a.name, "portable") == 0)
      << a.name;
}

TEST(ScanKernelTest, RowKernelsMatchDispatchedEntryPoints) {
  const ScanKernelTable& kt = ScanKernels();
  for (const size_t w : Widths()) {
    const auto a = RandomVec(w, 11 * w + 1);
    const auto b = RandomVec(w, 13 * w + 2);
    EXPECT_BITEQ(kt.l2_row(a.data(), b.data(), w),
                 PartialL2Sq(a.data(), b.data(), w))
        << "width " << w;
    EXPECT_BITEQ(kt.ip_row(a.data(), b.data(), w),
                 PartialIp(a.data(), b.data(), w))
        << "width " << w;
  }
}

TEST(ScanKernelTest, RowKernelsMatchPortableBelowSimdCutover) {
  // The historical dispatcher used the scalar kernels below width 16; the
  // table entries must preserve that cutover bit-for-bit.
  const ScanKernelTable& kt = ScanKernels();
  for (size_t w = 1; w < 16; ++w) {
    const auto a = RandomVec(w, 100 + w);
    const auto b = RandomVec(w, 200 + w);
    EXPECT_BITEQ(kt.l2_row(a.data(), b.data(), w),
                 portable::L2Row(a.data(), b.data(), w));
    EXPECT_BITEQ(kt.ip_row(a.data(), b.data(), w),
                 portable::IpRow(a.data(), b.data(), w));
  }
}

// Batched kernels must accumulate, per row, exactly what the single-row
// kernel returns: accum[i] += row_kernel(q, row_i). Counts sweep the 4-row
// register-blocking remainder cases; the accumulator is seeded with random
// nonzero values to verify += (not =) semantics.
void CheckBatchMatchesRows(bool ip) {
  const ScanKernelTable& kt = ScanKernels();
  const std::vector<size_t> counts = {1, 2, 3, 4, 5, 6, 7, 8,
                                      9, 12, 16, 17, 33, 64};
  for (const size_t w : Widths()) {
    if (w > 256 && w != 1024) continue;  // Bound runtime; tails covered.
    const auto q = RandomVec(w, 3 * w + (ip ? 7 : 0));
    for (const size_t n : counts) {
      const auto rows = RandomVec(n * w, 5 * w + n);
      auto accum = RandomVec(n, 7 * w + n);
      std::vector<float> expect(accum);
      for (size_t i = 0; i < n; ++i) {
        const float* r = rows.data() + i * w;
        expect[i] += ip ? kt.ip_row(q.data(), r, w) : kt.l2_row(q.data(), r, w);
      }
      const KernelShape shape = DefaultShape(KernelTier::kAuto, ip);
      if (ip) {
        kt.ip_batch(q.data(), rows.data(), n, w, accum.data(), shape);
      } else {
        kt.l2_batch(q.data(), rows.data(), n, w, accum.data(), shape);
      }
      ASSERT_EQ(std::memcmp(accum.data(), expect.data(), n * sizeof(float)), 0)
          << (ip ? "ip" : "l2") << " width " << w << " count " << n;
    }
  }
}

TEST(ScanKernelTest, L2BatchMatchesRowKernelBitwise) {
  CheckBatchMatchesRows(/*ip=*/false);
}

TEST(ScanKernelTest, IpBatchMatchesRowKernelBitwise) {
  CheckBatchMatchesRows(/*ip=*/true);
}

TEST(ScanKernelTest, PortableBatchMatchesPortableRows) {
  // The portable batch is the reference even on AVX2 hosts; pin it to the
  // portable row kernel independently of what the table resolved to.
  for (const size_t w : {size_t{1}, size_t{7}, size_t{16}, size_t{33}}) {
    const auto q = RandomVec(w, 41);
    const auto rows = RandomVec(9 * w, 43);
    std::vector<float> accum(9, 0.0f), expect(9, 0.0f);
    for (size_t i = 0; i < 9; ++i) {
      expect[i] = portable::L2Row(q.data(), rows.data() + i * w, w);
    }
    portable::L2Batch(q.data(), rows.data(), 9, w, accum.data(),
                      DefaultShape(KernelTier::kPortable, false));
    EXPECT_EQ(std::memcmp(accum.data(), expect.data(), 9 * sizeof(float)), 0);
  }
}

TEST(ScanKernelTest, BatchHandlesUnalignedPointers) {
  // Offset every buffer by one float so nothing is 32-byte aligned; the
  // kernels use unaligned loads and must not care.
  const ScanKernelTable& kt = ScanKernels();
  for (const size_t w : {size_t{16}, size_t{24}, size_t{32}, size_t{100}}) {
    const size_t n = 13;
    const auto qb = RandomVec(w + 1, 51);
    const auto rb = RandomVec(n * w + 1, 53);
    const float* q = qb.data() + 1;
    const float* rows = rb.data() + 1;
    std::vector<float> accum(n, 0.0f), expect(n, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      expect[i] = kt.l2_row(q, rows + i * w, w);
    }
    kt.l2_batch(q, rows, n, w, accum.data(),
                DefaultShape(KernelTier::kAuto, false));
    EXPECT_EQ(std::memcmp(accum.data(), expect.data(), n * sizeof(float)), 0)
        << "width " << w;
  }
}

TEST(ScanKernelTest, PruneMasksMatchScalarCanPrune) {
  const ScanKernelTable& kt = ScanKernels();
  Rng rng(77);
  for (size_t count = 1; count <= kPruneMaskWidth; ++count) {
    for (int trial = 0; trial < 8; ++trial) {
      const float tau = static_cast<float>(rng.NextGaussian());
      std::vector<float> partial(count), rem_p(count);
      for (size_t i = 0; i < count; ++i) {
        // Mix strict-above, strict-below and exactly-equal-to-tau partials
        // (equality must NOT prune), plus negative remaining norms (clamped
        // to zero inside the bound).
        const int kind = static_cast<int>(rng.NextBounded(4));
        partial[i] = kind == 0 ? tau
                               : tau + static_cast<float>(rng.NextGaussian());
        rem_p[i] = static_cast<float>(rng.NextGaussian());
      }
      const float rem_q = static_cast<float>(rng.NextGaussian());

      const uint64_t l2 = kt.prune_mask_l2(partial.data(), count, tau);
      const uint64_t l2p = portable::PruneMaskL2(partial.data(), count, tau);
      const uint64_t ip = kt.prune_mask_ip(partial.data(), rem_p.data(),
                                           count, rem_q, tau);
      const uint64_t ipp = portable::PruneMaskIp(partial.data(), rem_p.data(),
                                                 count, rem_q, tau);
      EXPECT_EQ(l2, l2p);
      EXPECT_EQ(ip, ipp);
      for (size_t i = 0; i < count; ++i) {
        const bool want_l2 = CanPrune(Metric::kL2, partial[i], 0.0f, 0.0f, tau);
        const bool want_ip =
            CanPrune(Metric::kInnerProduct, partial[i], rem_p[i], rem_q, tau);
        EXPECT_EQ((l2 >> i) & 1u, want_l2 ? 1u : 0u) << "i=" << i;
        EXPECT_EQ((ip >> i) & 1u, want_ip ? 1u : 0u) << "i=" << i;
      }
      // Bits at and above `count` must be clear.
      if (count < 64) {
        EXPECT_EQ(l2 >> count, uint64_t{0});
        EXPECT_EQ(ip >> count, uint64_t{0});
      }
    }
  }
}

// Group kernels (shared scans): one call over nq queries must equal nq
// independent batch calls bit-for-bit, for every query count around the
// default query-tile boundary and for widths on both sides of the AVX2
// cutover. This is the identity that lets the engines toggle
// ExecOptions::shared_scans without perturbing a single result bit.
void CheckGroupMatchesBatches(bool ip, bool use_portable) {
  const ScanKernelTable& kt = ScanKernels();
  const KernelTier tier = use_portable ? KernelTier::kPortable
                                       : KernelTier::kAuto;
  auto batch = use_portable ? (ip ? portable::IpBatch : portable::L2Batch)
                            : (ip ? kt.ip_batch : kt.l2_batch);
  auto group = use_portable ? (ip ? portable::IpGroup : portable::L2Group)
                            : (ip ? kt.ip_group : kt.l2_group);
  const size_t counts[] = {1, 3, 4, 5, 17};
  for (const size_t w : Widths()) {
    const KernelShape shape = DefaultShape(tier, ip);
    for (size_t nq = 1; nq <= shape.query_tile + size_t{2}; ++nq) {
      for (const size_t count : counts) {
        std::vector<std::vector<float>> qs;
        std::vector<const float*> q_ptrs;
        for (size_t g = 0; g < nq; ++g) {
          qs.push_back(RandomVec(w, 1000 * w + 10 * g + (ip ? 1 : 0)));
          q_ptrs.push_back(qs.back().data());
        }
        const auto rows = RandomVec(count * w, 7000 * w + count);
        // Nonzero starting accumulators: group must add, not assign.
        std::vector<std::vector<float>> got, expect;
        for (size_t g = 0; g < nq; ++g) {
          std::vector<float> init(count);
          for (size_t i = 0; i < count; ++i) {
            init[i] = static_cast<float>(g) - static_cast<float>(i) * 0.25f;
          }
          got.push_back(init);
          expect.push_back(init);
        }
        std::vector<float*> accum_ptrs;
        for (size_t g = 0; g < nq; ++g) accum_ptrs.push_back(got[g].data());
        for (size_t g = 0; g < nq; ++g) {
          batch(q_ptrs[g], rows.data(), count, w, expect[g].data(), shape);
        }
        group(q_ptrs.data(), nq, rows.data(), count, w, accum_ptrs.data(),
              shape);
        for (size_t g = 0; g < nq; ++g) {
          EXPECT_EQ(std::memcmp(got[g].data(), expect[g].data(),
                                count * sizeof(float)),
                    0)
              << (ip ? "ip" : "l2") << " width " << w << " nq " << nq
              << " count " << count << " query " << g;
        }
      }
    }
  }
}

TEST(ScanKernelTest, L2GroupMatchesPerQueryBatchesBitwise) {
  CheckGroupMatchesBatches(/*ip=*/false, /*use_portable=*/false);
}

TEST(ScanKernelTest, IpGroupMatchesPerQueryBatchesBitwise) {
  CheckGroupMatchesBatches(/*ip=*/true, /*use_portable=*/false);
}

TEST(ScanKernelTest, PortableGroupMatchesPortableBatches) {
  CheckGroupMatchesBatches(/*ip=*/false, /*use_portable=*/true);
  CheckGroupMatchesBatches(/*ip=*/true, /*use_portable=*/true);
}

// --- Every shape is bit-transparent. -------------------------------------

// row_block / query_tile / prefetch only reorder *which* frozen per-row
// chains run concurrently, never the chains themselves, so a tier's shape
// moves throughput and never results. Verify: for every shape in the grid,
// the batch and group kernels reproduce the row-kernel results
// bit-for-bit on the resolved table.
TEST(ScanKernelTest, ShapedBatchBitIdenticalForAllShapes) {
  const ScanKernelTable& kt = ScanKernels();
  const size_t counts[] = {1, 3, 4, 5, 7, 8, 9, 17, 64};
  for (const size_t w : {size_t{8}, size_t{16}, size_t{24}, size_t{100}}) {
    const auto q = RandomVec(w, 61 * w);
    for (const size_t n : counts) {
      const auto rows = RandomVec(n * w, 67 * w + n);
      std::vector<float> expect(n, 0.0f), expect_ip(n, 0.0f);
      for (size_t i = 0; i < n; ++i) {
        expect[i] = kt.l2_row(q.data(), rows.data() + i * w, w);
        expect_ip[i] = kt.ip_row(q.data(), rows.data() + i * w, w);
      }
      for (const uint8_t rb : {uint8_t{4}, uint8_t{6}, uint8_t{8}}) {
        for (const uint8_t pf : {uint8_t{0}, uint8_t{4}, uint8_t{8}}) {
          const KernelShape shape{rb, 4, pf};
          std::vector<float> accum(n, 0.0f);
          kt.l2_batch(q.data(), rows.data(), n, w, accum.data(), shape);
          ASSERT_EQ(
              std::memcmp(accum.data(), expect.data(), n * sizeof(float)), 0)
              << "l2 w=" << w << " n=" << n << " rb=" << int(rb)
              << " pf=" << int(pf);
          std::fill(accum.begin(), accum.end(), 0.0f);
          kt.ip_batch(q.data(), rows.data(), n, w, accum.data(), shape);
          ASSERT_EQ(
              std::memcmp(accum.data(), expect_ip.data(), n * sizeof(float)),
              0)
              << "ip w=" << w << " n=" << n << " rb=" << int(rb)
              << " pf=" << int(pf);
        }
      }
    }
  }
}

TEST(ScanKernelTest, ShapedGroupBitIdenticalForAllShapes) {
  const ScanKernelTable& kt = ScanKernels();
  const size_t count = 21;
  for (const size_t w : {size_t{8}, size_t{24}, size_t{100}}) {
    for (size_t nq = 1; nq <= kMaxQueryTile + 1; ++nq) {
      std::vector<std::vector<float>> qs;
      std::vector<const float*> q_ptrs;
      for (size_t g = 0; g < nq; ++g) {
        qs.push_back(RandomVec(w, 300 * w + g));
        q_ptrs.push_back(qs.back().data());
      }
      const auto rows = RandomVec(count * w, 500 * w);
      std::vector<std::vector<float>> expect(nq,
                                             std::vector<float>(count, 0.0f));
      for (size_t g = 0; g < nq; ++g) {
        for (size_t i = 0; i < count; ++i) {
          expect[g][i] = kt.l2_row(q_ptrs[g], rows.data() + i * w, w);
        }
      }
      for (const uint8_t qt : {uint8_t{2}, uint8_t{4}, uint8_t{8}}) {
        for (const uint8_t pf : {uint8_t{0}, uint8_t{4}}) {
          std::vector<std::vector<float>> got(
              nq, std::vector<float>(count, 0.0f));
          std::vector<float*> accums;
          for (size_t g = 0; g < nq; ++g) accums.push_back(got[g].data());
          kt.l2_group(q_ptrs.data(), nq, rows.data(), count, w,
                      accums.data(), KernelShape{4, qt, pf});
          for (size_t g = 0; g < nq; ++g) {
            ASSERT_EQ(std::memcmp(got[g].data(), expect[g].data(),
                                  count * sizeof(float)),
                      0)
                << "w=" << w << " nq=" << nq << " qt=" << int(qt)
                << " pf=" << int(pf) << " q=" << g;
          }
        }
      }
    }
  }
}

// --- AVX-512 tier: runtime-gated bitwise parity with the AVX2 family. ----

// The AVX-512 kernels are constructed as "one zmm = two AVX2 ymm lanes"
// (scan_kernel_avx512.cc) precisely so the tier swap never changes a bit:
// auto-dispatch may resolve to either tier on different hosts and all
// goldens/replay fingerprints must agree. Skips cleanly when the host (or
// build) lacks AVX-512.
#if defined(HARMONY_HAVE_AVX512_TU) && defined(HARMONY_HAVE_AVX2_TU)
#define HARMONY_AVX512_PARITY_TESTS 1
#endif

class Avx512ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!KernelTierAvailable(KernelTier::kAvx512) ||
        !KernelTierAvailable(KernelTier::kAvx2)) {
      GTEST_SKIP() << "AVX-512 (or AVX2) unavailable on this host/build";
    }
  }
};

#if defined(HARMONY_AVX512_PARITY_TESTS)

TEST_F(Avx512ParityTest, RowKernelsMatchAvx2Bitwise) {
  for (const size_t w : Widths()) {
    const auto a = RandomVec(w, 21 * w + 1);
    const auto b = RandomVec(w, 23 * w + 2);
    EXPECT_BITEQ(avx512::L2Row(a.data(), b.data(), w),
                 avx2::L2Row(a.data(), b.data(), w))
        << "width " << w;
    EXPECT_BITEQ(avx512::IpRow(a.data(), b.data(), w),
                 avx2::IpRow(a.data(), b.data(), w))
        << "width " << w;
  }
}

TEST_F(Avx512ParityTest, BatchKernelsMatchAvx2Bitwise) {
  const size_t counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64};
  for (const size_t w : Widths()) {
    if (w > 256 && w != 1024) continue;
    const auto q = RandomVec(w, 31 * w);
    for (const size_t n : counts) {
      const auto rows = RandomVec(n * w, 37 * w + n);
      auto a5 = RandomVec(n, 41 * w + n);
      std::vector<float> a2(a5);
      // Each tier at its own default shape.
      avx512::L2Batch(q.data(), rows.data(), n, w, a5.data(),
                      DefaultShape(KernelTier::kAvx512, false));
      avx2::L2Batch(q.data(), rows.data(), n, w, a2.data(),
                    DefaultShape(KernelTier::kAvx2, false));
      ASSERT_EQ(std::memcmp(a5.data(), a2.data(), n * sizeof(float)), 0)
          << "l2 width " << w << " count " << n;
      avx512::IpBatch(q.data(), rows.data(), n, w, a5.data(),
                      DefaultShape(KernelTier::kAvx512, true));
      avx2::IpBatch(q.data(), rows.data(), n, w, a2.data(),
                    DefaultShape(KernelTier::kAvx2, true));
      ASSERT_EQ(std::memcmp(a5.data(), a2.data(), n * sizeof(float)), 0)
          << "ip width " << w << " count " << n;
      // Shaped entries across the shape grid agree too.
      for (const uint8_t rb : {uint8_t{4}, uint8_t{6}, uint8_t{8}}) {
        const KernelShape shape{rb, 4, 2};
        avx512::L2Batch(q.data(), rows.data(), n, w, a5.data(), shape);
        avx2::L2Batch(q.data(), rows.data(), n, w, a2.data(), shape);
        ASSERT_EQ(std::memcmp(a5.data(), a2.data(), n * sizeof(float)), 0)
            << "shaped l2 width " << w << " count " << n << " rb=" << int(rb);
      }
    }
  }
}

TEST_F(Avx512ParityTest, GroupKernelsMatchAvx2Bitwise) {
  const size_t counts[] = {1, 4, 17, 33};
  for (const size_t w : {size_t{16}, size_t{24}, size_t{48}, size_t{100}}) {
    for (size_t nq = 1; nq <= kMaxQueryTile; ++nq) {
      for (const size_t count : counts) {
        std::vector<std::vector<float>> qs;
        std::vector<const float*> q_ptrs;
        for (size_t g = 0; g < nq; ++g) {
          qs.push_back(RandomVec(w, 900 * w + g));
          q_ptrs.push_back(qs.back().data());
        }
        const auto rows = RandomVec(count * w, 1100 * w + count);
        std::vector<std::vector<float>> g5(nq,
                                           std::vector<float>(count, 0.5f));
        std::vector<std::vector<float>> g2(g5);
        std::vector<float*> p5, p2;
        for (size_t g = 0; g < nq; ++g) {
          p5.push_back(g5[g].data());
          p2.push_back(g2[g].data());
        }
        avx512::IpGroup(q_ptrs.data(), nq, rows.data(), count, w, p5.data(),
                        DefaultShape(KernelTier::kAvx512, true));
        avx2::IpGroup(q_ptrs.data(), nq, rows.data(), count, w, p2.data(),
                      DefaultShape(KernelTier::kAvx2, true));
        for (size_t g = 0; g < nq; ++g) {
          ASSERT_EQ(std::memcmp(g5[g].data(), g2[g].data(),
                                count * sizeof(float)),
                    0)
              << "width " << w << " nq " << nq << " count " << count;
        }
      }
    }
  }
}

TEST_F(Avx512ParityTest, PruneMasksMatchPortable) {
  Rng rng(99);
  for (size_t count = 1; count <= kPruneMaskWidth; ++count) {
    const float tau = static_cast<float>(rng.NextGaussian());
    std::vector<float> partial(count), rem_p(count);
    for (size_t i = 0; i < count; ++i) {
      partial[i] = (i % 3 == 0) ? tau
                                : tau + static_cast<float>(rng.NextGaussian());
      rem_p[i] = static_cast<float>(rng.NextGaussian());
    }
    const float rem_q = std::abs(static_cast<float>(rng.NextGaussian()));
    EXPECT_EQ(avx512::PruneMaskL2(partial.data(), count, tau),
              portable::PruneMaskL2(partial.data(), count, tau))
        << "count " << count;
    EXPECT_EQ(
        avx512::PruneMaskIp(partial.data(), rem_p.data(), count, rem_q, tau),
        portable::PruneMaskIp(partial.data(), rem_p.data(), count, rem_q, tau))
        << "count " << count;
  }
}

TEST_F(Avx512ParityTest, AdcBatchMatchesPortable) {
  Rng rng(123);
  for (const size_t m : {size_t{4}, size_t{8}, size_t{16}}) {
    const size_t ksub = 256;
    std::vector<float> luts(m * ksub);
    for (float& x : luts) x = static_cast<float>(rng.NextGaussian());
    for (const size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{33}}) {
      std::vector<uint8_t> codes(n * m);
      for (uint8_t& c : codes) {
        c = static_cast<uint8_t>(rng.NextBounded(256));
      }
      std::vector<float> got(n), want(n);
      avx512::AdcBatch(luts.data(), ksub, codes.data(), m, n, got.data());
      portable::AdcBatch(luts.data(), ksub, codes.data(), m, n, want.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
          << "m " << m << " n " << n;
    }
  }
}

#endif  // HARMONY_AVX512_PARITY_TESTS

// --- ScanBlock: batched two-pass vs the historical reference loop. -------

struct SyntheticBlock {
  std::vector<ListSlice> lists;
  std::vector<const ListSlice*> slices;
  std::vector<float> query;  // Full-dimension query.
  DimRange range;
  size_t full_dim = 0;

  // List-major SoA candidate arrays with gaps (multiple runs per list).
  std::vector<int64_t> id;
  std::vector<int32_t> list;
  std::vector<int32_t> row;
  std::vector<float> partial;
  std::vector<float> rem_p_sq;
};

SyntheticBlock MakeSyntheticBlock(uint64_t seed) {
  SyntheticBlock blk;
  blk.full_dim = 40;
  blk.range = DimRange{8, 32};  // Width 24: SIMD body + scalar tail.
  blk.query = RandomVec(blk.full_dim, seed);
  const std::vector<size_t> list_rows = {50, 33, 17};
  Rng rng(seed ^ 0xBEEF);
  int64_t next_id = 0;
  blk.lists.resize(list_rows.size());
  for (size_t li = 0; li < list_rows.size(); ++li) {
    const size_t n = list_rows[li];
    Dataset data(n, blk.full_dim);
    std::vector<int64_t> ids(n);
    for (size_t r = 0; r < n; ++r) {
      ids[r] = next_id++;
      float* dst = data.MutableRow(r);
      for (size_t d = 0; d < blk.full_dim; ++d) {
        dst[d] = static_cast<float>(rng.NextGaussian());
      }
    }
    ListSlice& ls = blk.lists[li];
    auto slice = DimSlicedMatrix::FromAllRows(data.View(), blk.range, ids);
    EXPECT_TRUE(slice.ok());
    ls.slice = std::move(slice).value();
    for (size_t r = 0; r < n; ++r) {
      const float* srow = ls.slice.Row(r);
      ls.block_norm_sq.push_back(PartialIp(srow, srow, blk.range.width()));
      const float* full = data.Row(r);
      ls.total_norm_sq.push_back(PartialIp(full, full, blk.full_dim));
    }
    // Candidates: most rows of the list, skipping every 7th so survivors
    // split into several contiguous runs even before pruning.
    for (size_t r = 0; r < n; ++r) {
      if (r % 7 == 3) continue;
      blk.id.push_back(ls.slice.GlobalId(r));
      blk.list.push_back(static_cast<int32_t>(li));
      blk.row.push_back(static_cast<int32_t>(r));
      blk.partial.push_back(static_cast<float>(rng.NextGaussian()));
      blk.rem_p_sq.push_back(ls.total_norm_sq[r] - ls.block_norm_sq[r]);
    }
  }
  for (const ListSlice& ls : blk.lists) blk.slices.push_back(&ls);
  return blk;
}

void CheckScanBlockParity(Metric metric, bool prune, bool use_norms) {
  SyntheticBlock blk = MakeSyntheticBlock(metric == Metric::kL2 ? 5 : 9);
  BlockScanParams p;
  p.metric = metric;
  p.use_norms = use_norms;
  p.prune = prune;
  p.rem_q_sq = 6.5f;
  p.q_slice = blk.query.data() + blk.range.begin;
  p.width = blk.range.width();
  p.slices = blk.slices.data();
  p.dispatch = DefaultDispatch(metric);

  // Pick tau at the median prune bound so roughly half the candidates drop.
  if (prune) {
    std::vector<float> bounds;
    for (size_t i = 0; i < blk.partial.size(); ++i) {
      if (metric == Metric::kL2) {
        bounds.push_back(blk.partial[i]);
      } else {
        bounds.push_back(-(blk.partial[i] +
                           std::sqrt(std::max(0.0f, blk.rem_p_sq[i]) *
                                     p.rem_q_sq)));
      }
    }
    std::nth_element(bounds.begin(), bounds.begin() + bounds.size() / 2,
                     bounds.end());
    p.tau = bounds[bounds.size() / 2];
  }

  auto run = [&](bool batched) {
    SyntheticBlock copy = blk;  // Fresh arrays per run.
    BlockScanParams rp = p;
    rp.use_batched = batched;
    rp.slices = copy.slices.data();
    BlockScanCounters counters;
    const size_t w = ScanBlock(
        rp, 0, copy.id.size(), copy.id.data(), copy.list.data(),
        copy.row.data(), copy.partial.data(),
        use_norms ? copy.rem_p_sq.data() : nullptr, /*bound=*/nullptr,
        &counters);
    return std::make_tuple(std::move(copy), w, counters);
  };

  auto [ref, ref_w, ref_c] = run(false);
  auto [bat, bat_w, bat_c] = run(true);

  ASSERT_EQ(bat_w, ref_w);
  EXPECT_EQ(bat_c.ops, ref_c.ops);
  EXPECT_EQ(bat_c.dropped, ref_c.dropped);
  if (prune) {
    EXPECT_GT(ref_c.dropped, 0u);
    EXPECT_LT(ref_w, blk.id.size());
  } else {
    EXPECT_EQ(ref_w, blk.id.size());
  }
  EXPECT_EQ(std::memcmp(bat.id.data(), ref.id.data(),
                        ref_w * sizeof(int64_t)), 0);
  EXPECT_EQ(std::memcmp(bat.list.data(), ref.list.data(),
                        ref_w * sizeof(int32_t)), 0);
  EXPECT_EQ(std::memcmp(bat.row.data(), ref.row.data(),
                        ref_w * sizeof(int32_t)), 0);
  EXPECT_EQ(std::memcmp(bat.partial.data(), ref.partial.data(),
                        ref_w * sizeof(float)), 0);
  if (use_norms) {
    EXPECT_EQ(std::memcmp(bat.rem_p_sq.data(), ref.rem_p_sq.data(),
                          ref_w * sizeof(float)), 0);
  }
}

TEST(ScanBlockTest, L2NoPruneMatchesReference) {
  CheckScanBlockParity(Metric::kL2, /*prune=*/false, /*use_norms=*/false);
}

TEST(ScanBlockTest, L2PruneMatchesReference) {
  CheckScanBlockParity(Metric::kL2, /*prune=*/true, /*use_norms=*/false);
}

TEST(ScanBlockTest, InnerProductWithNormsMatchesReference) {
  CheckScanBlockParity(Metric::kInnerProduct, /*prune=*/false,
                       /*use_norms=*/true);
}

TEST(ScanBlockTest, InnerProductPruneWithNormsMatchesReference) {
  CheckScanBlockParity(Metric::kInnerProduct, /*prune=*/true,
                       /*use_norms=*/true);
}

TEST(ScanBlockTest, CosinePruneWithNormsMatchesReference) {
  CheckScanBlockParity(Metric::kCosine, /*prune=*/true, /*use_norms=*/true);
}

}  // namespace
}  // namespace harmony
