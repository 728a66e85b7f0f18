#include "index/pq.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>

#include "index/distance.h"
#include "index/flat_index.h"
#include "index/scan_kernel.h"
#include "workload/ground_truth.h"
#include "workload/synthetic.h"

namespace harmony {
namespace {

GaussianMixture PqMixture(size_t n = 3000, size_t dim = 32,
                          size_t components = 8, uint64_t seed = 61) {
  GaussianMixtureSpec spec;
  spec.num_vectors = n;
  spec.dim = dim;
  spec.num_components = components;
  spec.seed = seed;
  auto r = GenerateGaussianMixture(spec);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

PqParams SmallPq(size_t m = 4, size_t bits = 6) {
  PqParams params;
  params.num_subspaces = m;
  params.bits = bits;
  return params;
}

TEST(ProductQuantizerTest, TrainValidation) {
  ProductQuantizer bad_bits(PqParams{.num_subspaces = 4, .bits = 9});
  const Dataset d = GenerateUniform(300, 16, 1);
  EXPECT_FALSE(bad_bits.Train(d.View()).ok());
  ProductQuantizer too_many_subspaces(PqParams{.num_subspaces = 32, .bits = 4});
  const Dataset tiny(300, 8);
  EXPECT_FALSE(too_many_subspaces.Train(GenerateUniform(300, 8, 2).View()).ok());
  ProductQuantizer too_few_points(SmallPq(4, 8));
  EXPECT_FALSE(too_few_points.Train(GenerateUniform(100, 16, 3).View()).ok());
}

TEST(ProductQuantizerTest, CodeSizeAndShape) {
  const GaussianMixture mix = PqMixture();
  ProductQuantizer pq(SmallPq(8, 8));
  ASSERT_TRUE(pq.Train(mix.vectors.View()).ok());
  EXPECT_TRUE(pq.trained());
  EXPECT_EQ(pq.code_size(), 8u);
  EXPECT_EQ(pq.codewords(), 256u);
  EXPECT_EQ(pq.dim(), 32u);
  const auto codes = pq.EncodeBatch(mix.vectors.View());
  EXPECT_EQ(codes.size(), mix.vectors.size() * 8);
}

TEST(ProductQuantizerTest, ReconstructionBeatsZeroBaseline) {
  const GaussianMixture mix = PqMixture();
  ProductQuantizer pq(SmallPq(8, 8));
  ASSERT_TRUE(pq.Train(mix.vectors.View()).ok());
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> recon(pq.dim());
  double err = 0.0, energy = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    const float* row = mix.vectors.Row(i);
    pq.Encode(row, code.data());
    pq.Decode(code.data(), recon.data());
    err += L2SqDistance(row, recon.data(), pq.dim());
    energy += InnerProduct(row, row, pq.dim());
  }
  // Quantization error well below the raw signal energy.
  EXPECT_LT(err, 0.3 * energy);
}

TEST(ProductQuantizerTest, MoreSubspacesReduceError) {
  const GaussianMixture mix = PqMixture(3000, 32, 8, 62);
  auto avg_err = [&](size_t m) {
    ProductQuantizer pq(SmallPq(m, 6));
    EXPECT_TRUE(pq.Train(mix.vectors.View()).ok());
    std::vector<uint8_t> code(pq.code_size());
    std::vector<float> recon(pq.dim());
    double err = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      pq.Encode(mix.vectors.Row(i), code.data());
      pq.Decode(code.data(), recon.data());
      err += L2SqDistance(mix.vectors.Row(i), recon.data(), pq.dim());
    }
    return err;
  };
  EXPECT_LT(avg_err(8), avg_err(2));
}

TEST(ProductQuantizerTest, AdcMatchesDecodedDistance) {
  const GaussianMixture mix = PqMixture();
  ProductQuantizer pq(SmallPq(4, 8));
  ASSERT_TRUE(pq.Train(mix.vectors.View()).ok());
  std::vector<float> table(pq.num_subspaces() * pq.codewords());
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> recon(pq.dim());
  for (size_t q = 0; q < 20; ++q) {
    const float* query = mix.vectors.Row(1000 + q);
    pq.ComputeLookupTable(query, table.data());
    for (size_t i = 0; i < 20; ++i) {
      const float* base = mix.vectors.Row(i);
      pq.Encode(base, code.data());
      pq.Decode(code.data(), recon.data());
      const float adc = pq.AdcDistance(table.data(), code.data());
      const float exact = L2SqDistance(query, recon.data(), pq.dim());
      // ADC(query, code) == L2(query, decode(code)) by construction.
      ASSERT_NEAR(adc, exact, 1e-2 * (1.0 + exact));
    }
  }
}

TEST(ProductQuantizerTest, SubspacesTileDimensions) {
  const GaussianMixture mix = PqMixture(2000, 30, 4, 63);
  ProductQuantizer pq(SmallPq(4, 6));
  ASSERT_TRUE(pq.Train(mix.vectors.View()).ok());
  size_t begin = 0;
  for (size_t m = 0; m < pq.num_subspaces(); ++m) {
    EXPECT_EQ(pq.Subspace(m).begin, begin);
    begin = pq.Subspace(m).end;
  }
  EXPECT_EQ(begin, 30u);
}

// --------------------------------------------------------------------------
// GridQuantizer: the per-dimension-block quantizer behind use_pq_streams
// (docs/quantization.md).

TEST(GridQuantizerTest, BudgetApportionedByWidth) {
  const GaussianMixture mix = PqMixture();
  GridPqParams p;
  p.num_subspaces = 8;
  p.bits = 6;
  GridQuantizer even;
  ASSERT_TRUE(even.Train(mix.vectors.View(), {{0, 16}, {16, 32}}, p).ok());
  ASSERT_EQ(even.num_blocks(), 2u);
  EXPECT_EQ(even.code_size(0), 4u);
  EXPECT_EQ(even.code_size(1), 4u);
  EXPECT_EQ(even.dim(), 32u);
  // Uneven split: the subspace budget follows block width.
  GridQuantizer uneven;
  ASSERT_TRUE(uneven.Train(mix.vectors.View(), {{0, 8}, {8, 32}}, p).ok());
  EXPECT_EQ(uneven.code_size(0), 2u);
  EXPECT_EQ(uneven.code_size(1), 6u);
  // A sliver block still gets at least one subspace.
  GridQuantizer sliver;
  ASSERT_TRUE(sliver.Train(mix.vectors.View(), {{0, 2}, {2, 32}}, p).ok());
  EXPECT_GE(sliver.code_size(0), 1u);
}

// Codebooks are a pure function of (data, ranges, params): training the
// same triple again — on the main thread or on any number of concurrent
// worker threads — must produce bitwise-identical codes and ADC tables.
// This is what keeps PQ-stream executions reproducible across engines and
// thread counts.
TEST(GridQuantizerTest, TrainDeterministicAcrossThreads) {
  const GaussianMixture mix = PqMixture();
  const std::vector<DimRange> ranges = {{0, 16}, {16, 32}};
  GridPqParams p;
  p.num_subspaces = 8;
  p.bits = 6;

  GridQuantizer baseline;
  ASSERT_TRUE(baseline.Train(mix.vectors.View(), ranges, p).ok());

  std::vector<GridQuantizer> replicas(4);
  std::vector<Status> statuses(replicas.size());
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < replicas.size(); ++t) {
      threads.emplace_back([&, t] {
        statuses[t] = replicas[t].Train(mix.vectors.View(), ranges, p);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (const Status& st : statuses) ASSERT_TRUE(st.ok());

  for (const GridQuantizer& q : replicas) {
    ASSERT_EQ(q.num_blocks(), baseline.num_blocks());
    for (size_t d = 0; d < q.num_blocks(); ++d) {
      const ProductQuantizer& a = baseline.block(d);
      const ProductQuantizer& b = q.block(d);
      ASSERT_EQ(a.code_size(), b.code_size());
      const size_t begin = baseline.ranges()[d].begin;
      std::vector<uint8_t> code_a(a.code_size()), code_b(b.code_size());
      std::vector<float> lut_a(a.num_subspaces() * a.codewords());
      std::vector<float> lut_b(lut_a.size());
      for (size_t i = 0; i < 64; ++i) {
        const float* row = mix.vectors.Row(i * 37) + begin;
        a.Encode(row, code_a.data());
        b.Encode(row, code_b.data());
        EXPECT_EQ(code_a, code_b) << "block " << d << " row " << i * 37;
        a.ComputeLookupTable(row, lut_a.data());
        b.ComputeLookupTable(row, lut_b.data());
        for (size_t j = 0; j < lut_a.size(); ++j) {
          ASSERT_EQ(std::bit_cast<uint32_t>(lut_a[j]),
                    std::bit_cast<uint32_t>(lut_b[j]))
              << "block " << d << " lut entry " << j;
        }
      }
    }
  }
}

// The conservative prune bounds the executor derives from an ADC sum and
// the row's stored quantization residual err = ||p - decode(code)|| must be
// sound (docs/quantization.md):
//   L2: (max(0, sqrt(adc) - err))^2  <=  ||q - p||^2   (triangle inequality)
//   IP: adc + ||q|| * err            >=  <q, p>        (Cauchy–Schwarz)
// Checked per block over a deliberately coarse quantizer (small M, 6-bit
// codewords) so the residuals are large and the inequalities are stressed.
TEST(GridQuantizerTest, AdcBoundSoundness) {
  const GaussianMixture mix = PqMixture(3000, 32, 8, 66);
  GridPqParams p;
  p.num_subspaces = 8;
  p.bits = 6;
  GridQuantizer grid;
  ASSERT_TRUE(grid.Train(mix.vectors.View(), {{0, 16}, {16, 32}}, p).ok());

  for (size_t d = 0; d < grid.num_blocks(); ++d) {
    const ProductQuantizer& q = grid.block(d);
    const size_t begin = grid.ranges()[d].begin;
    const size_t width = q.dim();
    std::vector<float> lut_l2(q.num_subspaces() * q.codewords());
    std::vector<float> lut_ip(lut_l2.size());
    std::vector<uint8_t> code(q.code_size());
    std::vector<float> decoded(width);
    for (size_t qi = 0; qi < 20; ++qi) {
      const float* query = mix.vectors.Row(2000 + qi * 17) + begin;
      q.ComputeLookupTable(query, lut_l2.data());
      q.ComputeLookupTableIp(query, lut_ip.data());
      const float q_norm = std::sqrt(InnerProduct(query, query, width));
      for (size_t i = 0; i < 200; ++i) {
        const float* row = mix.vectors.Row(i * 7) + begin;
        q.Encode(row, code.data());
        q.Decode(code.data(), decoded.data());
        const float err = std::sqrt(L2SqDistance(row, decoded.data(), width));

        const float adc_l2 = q.AdcDistance(lut_l2.data(), code.data());
        const float t = std::sqrt(adc_l2) - err;
        const float lower = t > 0.0f ? t * t : 0.0f;
        const float exact_l2 = L2SqDistance(query, row, width);
        ASSERT_LE(lower, exact_l2 * (1.0f + 1e-4f) + 1e-4f)
            << "block " << d << " query " << qi << " row " << i * 7;

        const float adc_ip = q.AdcDistance(lut_ip.data(), code.data());
        const float upper = adc_ip + q_norm * err;
        const float exact_ip = InnerProduct(query, row, width);
        ASSERT_GE(upper,
                  exact_ip - 1e-4f * (1.0f + std::fabs(exact_ip)))
            << "block " << d << " query " << qi << " row " << i * 7;
      }
    }
  }
}

// Codeword c of `q`, band by band: decoding the code that names c in every
// subspace returns it (a test-local view of the codebook).
std::vector<float> Codeword(const ProductQuantizer& q, size_t c) {
  const std::vector<uint8_t> code(q.code_size(), static_cast<uint8_t>(c));
  std::vector<float> word(q.dim());
  q.Decode(code.data(), word.data());
  return word;
}

// The codeword-parallel kernel against a per-codeword row-kernel loop over
// a random dimension-major book, bitwise, for every band width below the
// row kernels' portable cutover and every available tier's row kernel
// (they all run the portable body there). ksub 37 covers a partial lane
// tile.
TEST(CodewordKernelTest, MatchesPerCodewordRowKernelsBitwise) {
  for (const size_t ksub : {size_t{2}, size_t{16}, size_t{37}, size_t{256}}) {
    for (size_t width = 1; width < kPortableRowWidthCutover; ++width) {
      const Dataset book = GenerateUniform(width, ksub, 7 * ksub + width);
      const Dataset queries = GenerateUniform(3, width, 11 * width + ksub);
      std::vector<float> l2(ksub), ip(ksub), word(width);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const float* query = queries.Row(qi);
        portable::L2Codewords(query, book.Row(0), width, ksub, l2.data());
        portable::IpCodewords(query, book.Row(0), width, ksub, ip.data());
        for (const KernelTier tier :
             {KernelTier::kPortable, KernelTier::kAvx2, KernelTier::kAvx512}) {
          if (!KernelTierAvailable(tier)) continue;
          const ScanKernelTable& kt = ScanKernelsFor(tier);
          for (size_t c = 0; c < ksub; ++c) {
            for (size_t j = 0; j < width; ++j) word[j] = book.Row(j)[c];
            ASSERT_EQ(std::bit_cast<uint32_t>(l2[c]),
                      std::bit_cast<uint32_t>(
                          kt.l2_row(query, word.data(), width)))
                << kt.name << " ksub " << ksub << " width " << width
                << " codeword " << c;
            ASSERT_EQ(std::bit_cast<uint32_t>(ip[c]),
                      std::bit_cast<uint32_t>(
                          kt.ip_row(query, word.data(), width)))
                << kt.name << " ksub " << ksub << " width " << width
                << " codeword " << c;
          }
        }
      }
    }
  }
}

// Tables and codes of trained quantizers against a test-local loop that
// scores each codeword with the dispatched row kernel (what the quantizer
// computed before its codebooks went dimension-major), bitwise: band widths
// 1-15 (the codeword-parallel kernel) plus 16 and 20 (the row-kernel path),
// at 2, 16 and 256 codewords.
TEST(ProductQuantizerTest, TablesAndCodesMatchPerCodewordLoopBitwise) {
  const ScanKernelTable& kt = ScanKernels();
  for (const size_t bits : {size_t{1}, size_t{4}, size_t{8}}) {
    for (size_t width = 1; width <= 20; ++width) {
      if (width > 15 && width != 16 && width != 20) continue;
      const size_t m = 2;
      const Dataset data = GenerateUniform(300, m * width, 3 * width + bits);
      ProductQuantizer q(PqParams{.num_subspaces = m, .bits = bits});
      ASSERT_TRUE(q.Train(data.View()).ok());
      const size_t ksub = q.codewords();
      std::vector<std::vector<float>> words;
      for (size_t c = 0; c < ksub; ++c) words.push_back(Codeword(q, c));
      std::vector<float> l2(m * ksub), ip(m * ksub);
      std::vector<uint8_t> code(m);
      for (size_t i = 0; i < 40; ++i) {
        const float* vec = data.Row(i * 7);
        q.ComputeLookupTable(vec, l2.data());
        q.ComputeLookupTableIp(vec, ip.data());
        q.Encode(vec, code.data());
        for (size_t s = 0; s < m; ++s) {
          const size_t off = s * width;
          size_t best = 0;
          float best_dist = std::numeric_limits<float>::max();
          for (size_t c = 0; c < ksub; ++c) {
            const float want_l2 =
                kt.l2_row(vec + off, words[c].data() + off, width);
            const float want_ip =
                kt.ip_row(vec + off, words[c].data() + off, width);
            ASSERT_EQ(std::bit_cast<uint32_t>(l2[s * ksub + c]),
                      std::bit_cast<uint32_t>(want_l2))
                << "bits " << bits << " width " << width << " codeword " << c;
            ASSERT_EQ(std::bit_cast<uint32_t>(ip[s * ksub + c]),
                      std::bit_cast<uint32_t>(want_ip))
                << "bits " << bits << " width " << width << " codeword " << c;
            if (want_l2 < best_dist) {
              best_dist = want_l2;
              best = c;
            }
          }
          ASSERT_EQ(code[s], best)
              << "bits " << bits << " width " << width << " row " << i * 7;
        }
      }
    }
  }
}

// k-means is bit-identical for every thread count, so grid training on 1
// and on 4 threads yields the same codebooks and the same codes.
TEST(GridQuantizerTest, ThreadCountDoesNotChangeCodebooksOrCodes) {
  const GaussianMixture mix = PqMixture(3000, 32, 8, 67);
  const std::vector<DimRange> ranges = {{0, 12}, {12, 32}};
  GridPqParams p;
  p.num_subspaces = 8;
  p.bits = 8;
  GridQuantizer serial;
  ASSERT_TRUE(serial.Train(mix.vectors.View(), ranges, p).ok());
  p.num_threads = 4;
  GridQuantizer threaded;
  ASSERT_TRUE(threaded.Train(mix.vectors.View(), ranges, p).ok());
  ASSERT_EQ(serial.num_blocks(), threaded.num_blocks());
  for (size_t d = 0; d < serial.num_blocks(); ++d) {
    const ProductQuantizer& a = serial.block(d);
    const ProductQuantizer& b = threaded.block(d);
    ASSERT_EQ(a.code_size(), b.code_size());
    ASSERT_EQ(a.codewords(), b.codewords());
    for (size_t c = 0; c < a.codewords(); ++c) {
      const std::vector<float> wa = Codeword(a, c);
      const std::vector<float> wb = Codeword(b, c);
      for (size_t j = 0; j < wa.size(); ++j) {
        ASSERT_EQ(std::bit_cast<uint32_t>(wa[j]), std::bit_cast<uint32_t>(wb[j]))
            << "block " << d << " codeword " << c << " component " << j;
      }
    }
    const DimRange r = ranges[d];
    Dataset cols(mix.vectors.size(), r.width());
    for (size_t i = 0; i < mix.vectors.size(); ++i) {
      std::copy(mix.vectors.Row(i) + r.begin, mix.vectors.Row(i) + r.end,
                cols.MutableRow(i));
    }
    EXPECT_EQ(a.EncodeBatch(cols.View()), b.EncodeBatch(cols.View()))
        << "block " << d;
  }
}

TEST(IvfPqIndexTest, LifecycleErrors) {
  IvfPqIndex index;
  const Dataset d = GenerateUniform(100, 16, 5);
  EXPECT_FALSE(index.Add(d.View()).ok());
  const float q[16] = {0};
  EXPECT_FALSE(index.Search(q, 1, 1).ok());
}

TEST(IvfPqIndexTest, RecallReasonableAtFractionOfMemory) {
  const GaussianMixture mix = PqMixture(6000, 32, 16, 64);
  IvfPqIndex::Params params;
  params.nlist = 16;
  params.pq = SmallPq(8, 8);
  IvfPqIndex pq_index(params);
  ASSERT_TRUE(pq_index.Train(mix.vectors.View()).ok());
  ASSERT_TRUE(pq_index.Add(mix.vectors.View()).ok());

  auto gt = ComputeGroundTruth(mix.vectors.View(), mix.vectors.View(), 10,
                               Metric::kL2);
  ASSERT_TRUE(gt.ok());
  double recall = 0.0;
  const size_t num_queries = 40;
  for (size_t q = 0; q < num_queries; ++q) {
    auto r = pq_index.Search(mix.vectors.Row(q * 29), 10, 8);
    ASSERT_TRUE(r.ok());
    recall += RecallAtK(r.value(), gt.value()[q * 29], 10);
  }
  recall /= static_cast<double>(num_queries);
  EXPECT_GT(recall, 0.5);  // Lossy, but far better than chance.

  // Compression: codes are 8 bytes vs 128 bytes of raw floats.
  const size_t raw_bytes = mix.vectors.SizeBytes();
  EXPECT_LT(pq_index.SizeBytes(), raw_bytes / 2);
}

TEST(IvfPqIndexTest, SearchOrderedAndSized) {
  const GaussianMixture mix = PqMixture(2000, 16, 4, 65);
  IvfPqIndex::Params params;
  params.nlist = 8;
  params.pq = SmallPq(4, 6);
  IvfPqIndex index(params);
  ASSERT_TRUE(index.Train(mix.vectors.View()).ok());
  ASSERT_TRUE(index.Add(mix.vectors.View()).ok());
  auto r = index.Search(mix.vectors.Row(3), 15, 8);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 15u);
  for (size_t i = 1; i < r.value().size(); ++i) {
    EXPECT_LE(r.value()[i - 1].distance, r.value()[i].distance);
  }
}

}  // namespace
}  // namespace harmony
