#include "index/scan_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "index/distance_simd.h"

namespace harmony {

namespace portable {

float L2Row(const float* a, const float* b, size_t width) {
  // Four accumulators let the compiler vectorize without relying on
  // -ffast-math reassociation. This body is the bitwise reference for every
  // other L2 kernel in the table; the TU compiles with -ffp-contract=off, so
  // no -march contracts its multiply-adds into FMAs.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= width; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < width; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

float IpRow(const float* a, const float* b, size_t width) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= width; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < width; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

namespace {

/// Rows kPrefetchRows iterations ahead of the current one are pulled toward
/// L1 while the current row computes; one line per 16 floats.
inline void PrefetchRow(const float* row, size_t width) {
  for (size_t i = 0; i < width; i += 16) {
    __builtin_prefetch(row + i, /*rw=*/0, /*locality=*/3);
  }
}

}  // namespace

// The portable tier has no register blocking — the row loop IS the per-row
// path — so its batch and group kernels only prefetch ahead and tile the
// query axis. Results are L2Row/IpRow per (query, row), like every other
// tier.

void L2Batch(const float* q, const float* rows, size_t count, size_t width,
             float* accum) {
  for (size_t r = 0; r < count; ++r) {
    if (r + kPrefetchRows < count) {
      PrefetchRow(rows + (r + kPrefetchRows) * width, width);
    }
    accum[r] += L2Row(q, rows + r * width, width);
  }
}

void IpBatch(const float* q, const float* rows, size_t count, size_t width,
             float* accum) {
  for (size_t r = 0; r < count; ++r) {
    if (r + kPrefetchRows < count) {
      PrefetchRow(rows + (r + kPrefetchRows) * width, width);
    }
    accum[r] += IpRow(q, rows + r * width, width);
  }
}

void L2Group(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums) {
  // Row-outer, query-inner: each row is loaded from memory once per query
  // tile and scored against every query in the tile.
  for (size_t q0 = 0; q0 < nq; q0 += kMaxQueryGroup) {
    const size_t qn = std::min(kMaxQueryGroup, nq - q0);
    for (size_t r = 0; r < count; ++r) {
      if (r + kPrefetchRows < count) {
        PrefetchRow(rows + (r + kPrefetchRows) * width, width);
      }
      const float* row = rows + r * width;
      for (size_t g = 0; g < qn; ++g) {
        accums[q0 + g][r] += L2Row(qs[q0 + g], row, width);
      }
    }
  }
}

void IpGroup(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums) {
  for (size_t q0 = 0; q0 < nq; q0 += kMaxQueryGroup) {
    const size_t qn = std::min(kMaxQueryGroup, nq - q0);
    for (size_t r = 0; r < count; ++r) {
      if (r + kPrefetchRows < count) {
        PrefetchRow(rows + (r + kPrefetchRows) * width, width);
      }
      const float* row = rows + r * width;
      for (size_t g = 0; g < qn; ++g) {
        accums[q0 + g][r] += IpRow(qs[q0 + g], row, width);
      }
    }
  }
}

uint64_t PruneMaskL2(const float* partial, size_t count, float tau) {
  uint64_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    if (partial[i] > tau) mask |= uint64_t{1} << i;
  }
  return mask;
}

uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau) {
  // Identical arithmetic to CanPrune (core/pruning.h): the Cauchy–Schwarz
  // bound on the unprocessed blocks' inner-product contribution.
  uint64_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    const float rest =
        std::sqrt(std::max(0.0f, rem_p_sq[i]) * std::max(0.0f, rem_q_sq));
    if (-(partial[i] + rest) > tau) mask |= uint64_t{1} << i;
  }
  return mask;
}

void AdcBatch(const float* lut, size_t ksub, const uint8_t* codes,
              size_t code_size, size_t count, float* out) {
  // One accumulator, ascending-m: the bitwise reference for the SIMD gather
  // kernels (which run the same per-lane addition sequence) and identical to
  // ProductQuantizer::AdcDistance.
  for (size_t r = 0; r < count; ++r) {
    const uint8_t* code = codes + r * code_size;
    float acc = 0.0f;
    for (size_t m = 0; m < code_size; ++m) acc += lut[m * ksub + code[m]];
    out[r] = acc;
  }
}

namespace {

/// Scores `n` (<= kLanes) adjacent codewords starting at column `col` of a
/// dimension-major codebook. Lane l carries L2Row's / IpRow's four
/// accumulators for its codeword and performs their additions in the row
/// body's order — four-wide steps, then the scalar tail into acc0, then the
/// (acc0 + acc1) + (acc2 + acc3) reduction — so each lane's value is bitwise
/// the row kernel's. The lane loops have no cross-lane dependence, which is
/// what lets the compiler vectorize them across codewords.
template <bool kIp, size_t kLanes>
void CodewordLanes(const float* q, const float* col, size_t width,
                   size_t ksub, size_t n, float* out) {
  float acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {},
        acc3[kLanes] = {};
  auto step = [](float a, float b, float acc) {
    if constexpr (kIp) {
      return acc + a * b;
    } else {
      const float d = a - b;
      return acc + d * d;
    }
  };
  size_t i = 0;
  for (; i + 4 <= width; i += 4) {
    const float q0 = q[i], q1 = q[i + 1], q2 = q[i + 2], q3 = q[i + 3];
    const float* b0 = col + i * ksub;
    const float* b1 = b0 + ksub;
    const float* b2 = b1 + ksub;
    const float* b3 = b2 + ksub;
    for (size_t l = 0; l < n; ++l) {
      acc0[l] = step(q0, b0[l], acc0[l]);
      acc1[l] = step(q1, b1[l], acc1[l]);
      acc2[l] = step(q2, b2[l], acc2[l]);
      acc3[l] = step(q3, b3[l], acc3[l]);
    }
  }
  for (; i < width; ++i) {
    const float qi = q[i];
    const float* bi = col + i * ksub;
    for (size_t l = 0; l < n; ++l) acc0[l] = step(qi, bi[l], acc0[l]);
  }
  for (size_t l = 0; l < n; ++l) {
    out[l] = (acc0[l] + acc1[l]) + (acc2[l] + acc3[l]);
  }
}

template <bool kIp>
void Codewords(const float* q, const float* book, size_t width, size_t ksub,
               float* out) {
  constexpr size_t kLanes = 16;
  size_t c = 0;
  // Full tiles run with a constant lane count so the lane loops compile to
  // straight vector code; the last partial tile runs the same body.
  for (; c + kLanes <= ksub; c += kLanes) {
    CodewordLanes<kIp, kLanes>(q, book + c, width, ksub, kLanes, out + c);
  }
  if (c < ksub) {
    CodewordLanes<kIp, kLanes>(q, book + c, width, ksub, ksub - c, out + c);
  }
}

}  // namespace

void L2Codewords(const float* q, const float* book, size_t width,
                 size_t ksub, float* out) {
  Codewords<false>(q, book, width, ksub, out);
}

void IpCodewords(const float* q, const float* book, size_t width,
                 size_t ksub, float* out) {
  Codewords<true>(q, book, width, ksub, out);
}

}  // namespace portable

namespace {

constexpr ScanKernelTable kPortableTable = {
    portable::L2Row,       portable::IpRow,
    portable::L2Batch,     portable::IpBatch,
    portable::L2Group,     portable::IpGroup,
    portable::PruneMaskL2, portable::PruneMaskIp,
    portable::AdcBatch,    "portable",
};

#if defined(HARMONY_HAVE_AVX2_TU)
constexpr ScanKernelTable kAvx2Table = {
    avx2::L2Row,       avx2::IpRow,
    avx2::L2Batch,     avx2::IpBatch,
    avx2::L2Group,     avx2::IpGroup,
    avx2::PruneMaskL2, avx2::PruneMaskIp,
    avx2::AdcBatch,    "avx2",
};
#endif

#if defined(HARMONY_HAVE_AVX512_TU)
constexpr ScanKernelTable kAvx512Table = {
    avx512::L2Row,       avx512::IpRow,
    avx512::L2Batch,     avx512::IpBatch,
    avx512::L2Group,     avx512::IpGroup,
    avx512::PruneMaskL2, avx512::PruneMaskIp,
    avx512::AdcBatch,    "avx512",
};
#endif

/// Widest tier available on this build + CPU.
KernelTier BestAvailableTier() {
#if defined(HARMONY_HAVE_AVX512_TU)
  if (simd::Avx512Available()) return KernelTier::kAvx512;
#endif
#if defined(HARMONY_HAVE_AVX2_TU)
  if (simd::Avx2Available()) return KernelTier::kAvx2;
#endif
  return KernelTier::kPortable;
}

}  // namespace

KernelTier PinnedKernelTier() {
  static const KernelTier tier = [] {
    const char* env = std::getenv("HARMONY_KERNEL_TIER");
    KernelTier t = KernelTier::kAuto;
    if (env != nullptr && ParseKernelTier(env, &t) && !KernelTierAvailable(t)) {
      t = KernelTier::kAuto;
    }
    return t;
  }();
  return tier;
}

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto:
      return "auto";
    case KernelTier::kPortable:
      return "portable";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "auto";
}

bool ParseKernelTier(std::string_view name, KernelTier* out) {
  if (name == "auto") {
    *out = KernelTier::kAuto;
  } else if (name == "portable") {
    *out = KernelTier::kPortable;
  } else if (name == "avx2") {
    *out = KernelTier::kAvx2;
  } else if (name == "avx512") {
    *out = KernelTier::kAvx512;
  } else {
    return false;
  }
  return true;
}

bool KernelTierAvailable(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto:
    case KernelTier::kPortable:
      return true;
    case KernelTier::kAvx2:
      return simd::Avx2Available();
    case KernelTier::kAvx512:
      return simd::Avx512Available();
  }
  return false;
}

KernelTier ResolveKernelTier(KernelTier requested) {
  if (requested == KernelTier::kAuto) {
    const KernelTier pinned = PinnedKernelTier();
    return pinned == KernelTier::kAuto ? BestAvailableTier() : pinned;
  }
  return KernelTierAvailable(requested) ? requested : BestAvailableTier();
}

const ScanKernelTable& ScanKernelsFor(KernelTier tier) {
  switch (ResolveKernelTier(tier)) {
#if defined(HARMONY_HAVE_AVX512_TU)
    case KernelTier::kAvx512:
      return kAvx512Table;
#endif
#if defined(HARMONY_HAVE_AVX2_TU)
    case KernelTier::kAvx2:
      return kAvx2Table;
#endif
    default:
      return kPortableTable;
  }
}

const ScanKernelTable& ScanKernels() {
  // Resolved exactly once; hot loops pay a table load, never a CPU check.
  static const ScanKernelTable& table = ScanKernelsFor(KernelTier::kAuto);
  return table;
}

}  // namespace harmony
