// AVX-512 batched block-scan kernels. Compiled with
// -mavx512f -mavx512dq -mavx512bw (plus -mavx2 -mfma for the shared 256-bit
// reduction/tail code; see src/CMakeLists.txt) and referenced only when the
// running CPU reports those sets — ScanKernels() resolves the table once.
//
// Bitwise-identity contract (docs/kernels.md): this tier is constructed to
// be bit-identical to the AVX2 tier, not merely to itself. Each 512-bit
// accumulator is treated as two independent 256-bit lanes — one 512-bit FMA
// over a 16-float chunk computes, lane for lane, exactly what the AVX2
// kernels' two 256-bit FMAs compute (the low half is AVX2's acc0, the high
// half acc1). The reduction splits the halves back apart, runs the leftover
// 8-wide chunk and the Hsum256 addition tree on 256-bit registers, and
// finishes with the same scalar tail. Widths below 16 fall back to the
// portable bodies, preserving the historical dispatch cutover. The payoff:
// half the FMA instructions per row and 32 zmm registers — room for 8-row
// batch blocks and 8-query group tiles (one accumulator per row/query
// instead of two) — without changing a single result bit, so `avx2` and
// `avx512` dispatch are interchangeable under every pinned golden.

#include "index/scan_kernel.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>

namespace harmony {
namespace avx512 {

namespace {

/// Horizontal sum of an 8-float register.
inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_hadd_ps(sum, sum);
  sum = _mm_hadd_ps(sum, sum);
  return _mm_cvtss_f32(sum);
}

/// Four horizontal sums at once; every lane runs the Hsum256 addition tree
/// (bit-identical, see scan_kernel_avx2.cc).
inline __m128 Hsum256x4(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  const __m128 s0 = _mm_add_ps(_mm256_castps256_ps128(v0),
                               _mm256_extractf128_ps(v0, 1));
  const __m128 s1 = _mm_add_ps(_mm256_castps256_ps128(v1),
                               _mm256_extractf128_ps(v1, 1));
  const __m128 s2 = _mm_add_ps(_mm256_castps256_ps128(v2),
                               _mm256_extractf128_ps(v2, 1));
  const __m128 s3 = _mm_add_ps(_mm256_castps256_ps128(v3),
                               _mm256_extractf128_ps(v3, 1));
  const __m128 h01 = _mm_hadd_ps(s0, s1);
  const __m128 h23 = _mm_hadd_ps(s2, s3);
  return _mm_hadd_ps(h01, h23);
}

inline __m256 FmaddOrMulAdd256(__m256 a, __m256 b, __m256 acc) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, acc);
#else
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
#endif
}

/// 512-bit FMA: per 32-bit lane the identical operation (and rounding) of
/// the two 256-bit FMAs it replaces.
inline __m512 Fmadd512(__m512 a, __m512 b, __m512 acc) {
  return _mm512_fmadd_ps(a, b, acc);
}

inline void PrefetchRow(const float* row, size_t width) {
  const size_t lines = std::min<size_t>(width, 64);
  for (size_t i = 0; i < lines; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(row + i), _MM_HINT_T0);
  }
}

/// Reduces RB accumulator pairs exactly like the AVX2 tier.
template <size_t RB>
inline void ReduceBlock(const __m256* a0, const __m256* a1, float* t) {
  size_t g = 0;
  for (; g + 4 <= RB; g += 4) {
    alignas(16) float s[4];
    _mm_store_ps(
        s, Hsum256x4(_mm256_add_ps(a0[g], a1[g]),
                     _mm256_add_ps(a0[g + 1], a1[g + 1]),
                     _mm256_add_ps(a0[g + 2], a1[g + 2]),
                     _mm256_add_ps(a0[g + 3], a1[g + 3])));
    t[g] = s[0];
    t[g + 1] = s[1];
    t[g + 2] = s[2];
    t[g + 3] = s[3];
  }
  for (; g < RB; ++g) t[g] = Hsum256(_mm256_add_ps(a0[g], a1[g]));
}

/// Single-row kernel, bit-identical to the AVX2 tier's RowImpl: the zmm
/// accumulator's low 256 bits evolve exactly like AVX2's acc0, the high
/// bits like acc1; the 8-wide chunk, the reduction and the unfused scalar
/// tail (both TUs pin -ffp-contract=off) then ARE the AVX2 code.
template <bool kIp>
float RowImpl(const float* a, const float* b, size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    if constexpr (kIp) {
      acc = Fmadd512(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc);
    } else {
      const __m512 d =
          _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
      acc = Fmadd512(d, d, acc);
    }
  }
  __m256 acc0 = _mm512_castps512_ps256(acc);
  __m256 acc1 = _mm512_extractf32x8_ps(acc, 1);
  for (; i + 8 <= dim; i += 8) {
    if constexpr (kIp) {
      acc0 = FmaddOrMulAdd256(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                              acc0);
    } else {
      const __m256 d =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      acc0 = FmaddOrMulAdd256(d, d, acc0);
    }
  }
  float total = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    if constexpr (kIp) {
      total += a[i] * b[i];
    } else {
      const float d = a[i] - b[i];
      total += d * d;
    }
  }
  return total;
}

/// Register-blocked batch body: one zmm accumulator per row (the AVX2
/// pair packed into halves), so even RB = 8 leaves most of the 32 zmm
/// registers free. Per row the sequence is frozen; RB and pf are
/// bit-transparent.
template <size_t RB, bool kIp>
void BatchImpl(const float* q, const float* rows, size_t count, size_t width,
               float* accum, size_t pf) {
  size_t r = 0;
  for (; r + RB <= count; r += RB) {
    const float* rp[RB];
    for (size_t g = 0; g < RB; ++g) rp[g] = rows + (r + g) * width;
    if (pf != 0 && r + RB + pf <= count) {
      for (size_t g = 0; g < pf; ++g) {
        PrefetchRow(rows + (r + RB + g) * width, width);
      }
    }
    __m512 a[RB];
    for (size_t g = 0; g < RB; ++g) a[g] = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= width; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (size_t g = 0; g < RB; ++g) {
        if constexpr (kIp) {
          a[g] = Fmadd512(qv, _mm512_loadu_ps(rp[g] + i), a[g]);
        } else {
          const __m512 d = _mm512_sub_ps(qv, _mm512_loadu_ps(rp[g] + i));
          a[g] = Fmadd512(d, d, a[g]);
        }
      }
    }
    __m256 a0[RB], a1[RB];
    for (size_t g = 0; g < RB; ++g) {
      a0[g] = _mm512_castps512_ps256(a[g]);
      a1[g] = _mm512_extractf32x8_ps(a[g], 1);
    }
    for (; i + 8 <= width; i += 8) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      for (size_t g = 0; g < RB; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd256(q0, _mm256_loadu_ps(rp[g] + i), a0[g]);
        } else {
          const __m256 d = _mm256_sub_ps(q0, _mm256_loadu_ps(rp[g] + i));
          a0[g] = FmaddOrMulAdd256(d, d, a0[g]);
        }
      }
    }
    float t[RB];
    ReduceBlock<RB>(a0, a1, t);
    for (; i < width; ++i) {
      const float qi = q[i];
      for (size_t g = 0; g < RB; ++g) {
        if constexpr (kIp) {
          t[g] += qi * rp[g][i];
        } else {
          const float d = qi - rp[g][i];
          t[g] += d * d;
        }
      }
    }
    for (size_t g = 0; g < RB; ++g) accum[r + g] += t[g];
  }
  for (; r < count; ++r) {
    accum[r] += RowImpl<kIp>(q, rows + r * width, width);
  }
}

template <bool kIp>
void BatchByShape(const float* q, const float* rows, size_t count,
                  size_t width, float* accum, KernelShape shape) {
  if (count < shape.row_block) {
    // Small-batch guard: straight to the tier's canonical per-row kernel —
    // the exact exported function the per-row path runs.
    for (size_t r = 0; r < count; ++r) {
      accum[r] += kIp ? IpRow(q, rows + r * width, width)
                      : L2Row(q, rows + r * width, width);
    }
    return;
  }
  switch (shape.row_block) {
    case 6:
      BatchImpl<6, kIp>(q, rows, count, width, accum, shape.prefetch);
      break;
    case 8:
      BatchImpl<8, kIp>(q, rows, count, width, accum, shape.prefetch);
      break;
    default:
      BatchImpl<4, kIp>(q, rows, count, width, accum, shape.prefetch);
      break;
  }
}

/// Query-tiled scan: one zmm accumulator per query, the row chunk loaded
/// once per 16 floats and scored against up to kMaxQueryTile queries.
template <size_t NQ, bool kIp>
void GroupTile(const float* const* qs, const float* rows, size_t count,
               size_t width, float* const* accums, size_t pf) {
  static_assert(NQ >= 2 && NQ <= kMaxQueryTile);
  for (size_t r = 0; r < count; ++r) {
    if (pf != 0 && r + pf < count) PrefetchRow(rows + (r + pf) * width, width);
    const float* row = rows + r * width;
    __m512 a[NQ];
    for (size_t g = 0; g < NQ; ++g) a[g] = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= width; i += 16) {
      const __m512 v = _mm512_loadu_ps(row + i);
      for (size_t g = 0; g < NQ; ++g) {
        if constexpr (kIp) {
          a[g] = Fmadd512(_mm512_loadu_ps(qs[g] + i), v, a[g]);
        } else {
          const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(qs[g] + i), v);
          a[g] = Fmadd512(d, d, a[g]);
        }
      }
    }
    __m256 a0[NQ], a1[NQ];
    for (size_t g = 0; g < NQ; ++g) {
      a0[g] = _mm512_castps512_ps256(a[g]);
      a1[g] = _mm512_extractf32x8_ps(a[g], 1);
    }
    for (; i + 8 <= width; i += 8) {
      const __m256 v0 = _mm256_loadu_ps(row + i);
      for (size_t g = 0; g < NQ; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd256(_mm256_loadu_ps(qs[g] + i), v0, a0[g]);
        } else {
          const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(qs[g] + i), v0);
          a0[g] = FmaddOrMulAdd256(d, d, a0[g]);
        }
      }
    }
    float t[NQ];
    ReduceBlock<NQ>(a0, a1, t);
    for (; i < width; ++i) {
      const float ri = row[i];
      for (size_t g = 0; g < NQ; ++g) {
        if constexpr (kIp) {
          t[g] += qs[g][i] * ri;
        } else {
          const float d = qs[g][i] - ri;
          t[g] += d * d;
        }
      }
    }
    for (size_t g = 0; g < NQ; ++g) accums[g][r] += t[g];
  }
}

template <bool kIp>
void GroupTileRun(const float* const* qs, size_t n, const float* rows,
                  size_t count, size_t width, float* const* accums,
                  KernelShape shape) {
  const size_t pf = shape.prefetch;
  switch (n) {
    case 1:
      BatchByShape<kIp>(qs[0], rows, count, width, accums[0], shape);
      break;
    case 2:
      GroupTile<2, kIp>(qs, rows, count, width, accums, pf);
      break;
    case 3:
      GroupTile<3, kIp>(qs, rows, count, width, accums, pf);
      break;
    case 4:
      GroupTile<4, kIp>(qs, rows, count, width, accums, pf);
      break;
    case 5:
      GroupTile<5, kIp>(qs, rows, count, width, accums, pf);
      break;
    case 6:
      GroupTile<6, kIp>(qs, rows, count, width, accums, pf);
      break;
    case 7:
      GroupTile<7, kIp>(qs, rows, count, width, accums, pf);
      break;
    default:
      GroupTile<8, kIp>(qs, rows, count, width, accums, pf);
      break;
  }
}

template <bool kIp>
void GroupByShape(const float* const* qs, size_t nq, const float* rows,
                  size_t count, size_t width, float* const* accums,
                  KernelShape shape) {
  const size_t qt =
      std::clamp<size_t>(shape.query_tile, 2, kMaxQueryTile);
  size_t g = 0;
  for (; g + qt <= nq; g += qt) {
    GroupTileRun<kIp>(qs + g, qt, rows, count, width, accums + g, shape);
  }
  if (g < nq) {
    GroupTileRun<kIp>(qs + g, nq - g, rows, count, width, accums + g, shape);
  }
}

}  // namespace

float L2Row(const float* a, const float* b, size_t width) {
  if (width < kPortableRowWidthCutover) return portable::L2Row(a, b, width);
  return RowImpl<false>(a, b, width);
}

float IpRow(const float* a, const float* b, size_t width) {
  if (width < kPortableRowWidthCutover) return portable::IpRow(a, b, width);
  return RowImpl<true>(a, b, width);
}

void L2Batch(const float* q, const float* rows, size_t count, size_t width,
             float* accum, KernelShape shape) {
  if (width < kPortableRowWidthCutover) {
    portable::L2Batch(q, rows, count, width, accum, shape);
    return;
  }
  BatchByShape<false>(q, rows, count, width, accum, shape);
}

void IpBatch(const float* q, const float* rows, size_t count, size_t width,
             float* accum, KernelShape shape) {
  if (width < kPortableRowWidthCutover) {
    portable::IpBatch(q, rows, count, width, accum, shape);
    return;
  }
  BatchByShape<true>(q, rows, count, width, accum, shape);
}

void L2Group(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums,
             KernelShape shape) {
  if (width < kPortableRowWidthCutover) {
    portable::L2Group(qs, nq, rows, count, width, accums, shape);
    return;
  }
  GroupByShape<false>(qs, nq, rows, count, width, accums, shape);
}

void IpGroup(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums,
             KernelShape shape) {
  if (width < kPortableRowWidthCutover) {
    portable::IpGroup(qs, nq, rows, count, width, accums, shape);
    return;
  }
  GroupByShape<true>(qs, nq, rows, count, width, accums, shape);
}

uint64_t PruneMaskL2(const float* partial, size_t count, float tau) {
  // 16 lanes per compare, four compares filling the whole 64-bit mask; the
  // decisions are IEEE compares, identical across every tier.
  uint64_t mask = 0;
  const __m512 vtau = _mm512_set1_ps(tau);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __mmask16 gt =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(partial + i), vtau, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(gt) << i;
  }
  if (i < count) {
    mask |= portable::PruneMaskL2(partial + i, count - i, tau) << i;
  }
  return mask;
}

uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau) {
  uint64_t mask = 0;
  const __m512 vtau = _mm512_set1_ps(tau);
  const __m512 zero = _mm512_setzero_ps();
  // max(x, 0) returns 0 for NaN inputs exactly like std::max(0.0f, x), and
  // IEEE sqrt/mul/add round identically at every register width — the mask
  // is bit-identical to the portable and AVX2 kernels.
  const __m512 rq = _mm512_set1_ps(std::max(0.0f, rem_q_sq));
  const __m512 sign = _mm512_set1_ps(-0.0f);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 rp = _mm512_max_ps(_mm512_loadu_ps(rem_p_sq + i), zero);
    const __m512 rest = _mm512_sqrt_ps(_mm512_mul_ps(rp, rq));
    const __m512 lower =
        _mm512_xor_ps(_mm512_add_ps(_mm512_loadu_ps(partial + i), rest), sign);
    const __mmask16 gt = _mm512_cmp_ps_mask(lower, vtau, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(gt) << i;
  }
  if (i < count) {
    mask |= portable::PruneMaskIp(partial + i, rem_p_sq + i, count - i,
                                  rem_q_sq, tau)
            << i;
  }
  return mask;
}

void AdcBatch(const float* lut, size_t ksub, const uint8_t* codes,
              size_t code_size, size_t count, float* out) {
  // 16 rows per iteration, one zmm lane per row; per-lane adds run in
  // ascending-m order with a single accumulator — bit-identical to
  // portable::AdcBatch like the AVX2 gather kernel.
  size_t r = 0;
  for (; r + 16 <= count; r += 16) {
    __m512 acc = _mm512_setzero_ps();
    alignas(64) int32_t idx[16];
    for (size_t m = 0; m < code_size; ++m) {
      const uint8_t* col = codes + r * code_size + m;
      for (size_t l = 0; l < 16; ++l) {
        idx[l] = static_cast<int32_t>(col[l * code_size]);
      }
      const __m512i vi = _mm512_load_si512(reinterpret_cast<__m512i*>(idx));
      const __m512 vals = _mm512_i32gather_ps(vi, lut + m * ksub, 4);
      acc = _mm512_add_ps(acc, vals);
    }
    _mm512_storeu_ps(out + r, acc);
  }
  if (r < count) {
    portable::AdcBatch(lut, ksub, codes + r * code_size, code_size, count - r,
                       out + r);
  }
}

}  // namespace avx512
}  // namespace harmony

#endif  // __AVX512F__ && __AVX512DQ__
