// AVX2 batched block-scan kernels. Compiled with -mavx2 -mfma (see
// src/CMakeLists.txt) and referenced only when the running CPU reports
// AVX2 support — ScanKernels() resolves the table once at first use.
//
// Bitwise-identity contract (docs/kernels.md): every row of a batched call
// goes through exactly the operation sequence of this TU's single-row
// RowImpl — 16-wide chunks into two accumulators, an 8-wide chunk into the
// first, horizontal sum, then an unfused scalar tail (-ffp-contract=off is
// pinned on this TU so the tail's rounding is not compiler-discretionary) —
// and widths below 16 fall back to the portable bodies, preserving the
// historical runtime-dispatch cutover bit-for-bit. The register blocking
// (4/6/8 rows, picked by the KernelShape) only reuses each *query* load
// across the row group; it never reorders a row's own accumulation, so
// every shape produces identical bits.

#include "index/scan_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace harmony {
namespace avx2 {

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

/// Horizontal sums of four registers at once, lane i holding Hsum256(v_i).
/// Each lane goes through the *same* addition tree as Hsum256 —
/// lo+hi, then ((s0+s1)+(s2+s3)) via two hadd levels — so the results are
/// bit-identical to four scalar Hsum256 calls at a third of the shuffle
/// uops. This is what makes the row blocking pay off at narrow widths,
/// where the reduction rivals the accumulation loop in cost.
inline __m128 Hsum256x4(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  const __m128 s0 = _mm_add_ps(_mm256_castps256_ps128(v0),
                               _mm256_extractf128_ps(v0, 1));
  const __m128 s1 = _mm_add_ps(_mm256_castps256_ps128(v1),
                               _mm256_extractf128_ps(v1, 1));
  const __m128 s2 = _mm_add_ps(_mm256_castps256_ps128(v2),
                               _mm256_extractf128_ps(v2, 1));
  const __m128 s3 = _mm_add_ps(_mm256_castps256_ps128(v3),
                               _mm256_extractf128_ps(v3, 1));
  const __m128 h01 = _mm_hadd_ps(s0, s1);  // [s00+s01, s02+s03, s10+s11, ..]
  const __m128 h23 = _mm_hadd_ps(s2, s3);
  return _mm_hadd_ps(h01, h23);  // lane i = (si0+si1)+(si2+si3)
}

inline __m256 FmaddOrMulAdd(__m256 a, __m256 b, __m256 acc) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, acc);
#else
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
#endif
}

/// Single-row kernel: the frozen AVX2 accumulation sequence — 16-wide
/// chunks into two accumulators, an 8-wide chunk into the first, the
/// Hsum256 tree, then a scalar tail. This TU pins -ffp-contract=off: the
/// scalar tail must round each multiply separately so the batch/group/
/// AVX-512 kernels — whose tails are compiled identically — can reproduce
/// it bit-for-bit at every width.
template <bool kIp>
float RowImpl(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    if constexpr (kIp) {
      acc0 = FmaddOrMulAdd(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
      acc1 = FmaddOrMulAdd(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    } else {
      const __m256 d0 =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                      _mm256_loadu_ps(b + i + 8));
      acc0 = FmaddOrMulAdd(d0, d0, acc0);
      acc1 = FmaddOrMulAdd(d1, d1, acc1);
    }
  }
  for (; i + 8 <= dim; i += 8) {
    if constexpr (kIp) {
      acc0 = FmaddOrMulAdd(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    } else {
      const __m256 d =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      acc0 = FmaddOrMulAdd(d, d, acc0);
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

/// Pulls the head of an upcoming row toward L1 while the current row group
/// computes. Rows are one contiguous stream, so the hardware prefetcher
/// covers the body; issuing more than a few lines here only burns load-port
/// slots (measured: full-row prefetch costs ~15% at width >= 128).
inline void PrefetchRow(const float* row, size_t width) {
  const size_t lines = std::min<size_t>(width, 64);
  for (size_t i = 0; i < lines; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(row + i), _MM_HINT_T0);
  }
}

/// Reduces RB (acc0, acc1) register pairs to scalars, four at a time
/// through Hsum256x4 and one at a time through Hsum256 for the remainder —
/// each lane runs the identical addition tree either way.
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

/// Register-blocked batch body: RB rows' frozen accumulation chains carried
/// concurrently, `pf` rows of the next group prefetched ahead. Per row the
/// sequence is exactly the single-row AVX2 kernel; RB and pf never change a
/// bit of the result.
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
    __m256 a0[RB], a1[RB];
    for (size_t g = 0; g < RB; ++g) {
      a0[g] = _mm256_setzero_ps();
      a1[g] = _mm256_setzero_ps();
    }
    size_t i = 0;
    for (; i + 16 <= width; i += 16) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      const __m256 q1 = _mm256_loadu_ps(q + i + 8);
      for (size_t g = 0; g < RB; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd(q0, _mm256_loadu_ps(rp[g] + i), a0[g]);
          a1[g] = FmaddOrMulAdd(q1, _mm256_loadu_ps(rp[g] + i + 8), a1[g]);
        } else {
          __m256 d = _mm256_sub_ps(q0, _mm256_loadu_ps(rp[g] + i));
          a0[g] = FmaddOrMulAdd(d, d, a0[g]);
          d = _mm256_sub_ps(q1, _mm256_loadu_ps(rp[g] + i + 8));
          a1[g] = FmaddOrMulAdd(d, d, a1[g]);
        }
      }
    }
    for (; i + 8 <= width; i += 8) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      for (size_t g = 0; g < RB; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd(q0, _mm256_loadu_ps(rp[g] + i), a0[g]);
        } else {
          const __m256 d = _mm256_sub_ps(q0, _mm256_loadu_ps(rp[g] + i));
          a0[g] = FmaddOrMulAdd(d, d, a0[g]);
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
  // Small-batch guard: below the row block there is nothing to register-
  // block — dispatch straight to the tier's canonical per-row kernel, the
  // exact exported function the per-row path runs, so tiny runs pay
  // per-row cost, never blocked-kernel setup.
  if (count < shape.row_block) {
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

namespace {

/// Query-tiled scan over one row at a time: the row chunks v0/v1 are loaded
/// once and scored against NQ queries (two accumulators each — NQ <= 4
/// keeps 2*NQ + 2 + 1 ymm registers live; wider tiles spill, and exist so
/// every KernelShape is valid on every tier). Per (query, row)
/// the chunking, accumulator split, reduction, and scalar tail are exactly
/// the single-row scheme, so the tile is bit-identical to NQ independent
/// batch calls.
template <size_t NQ, bool kIp>
void GroupTile(const float* const* qs, const float* rows, size_t count,
               size_t width, float* const* accums, size_t pf) {
  static_assert(NQ >= 2 && NQ <= kMaxQueryTile);
  for (size_t r = 0; r < count; ++r) {
    if (pf != 0 && r + pf < count) PrefetchRow(rows + (r + pf) * width, width);
    const float* row = rows + r * width;
    __m256 a0[NQ], a1[NQ];
    for (size_t g = 0; g < NQ; ++g) {
      a0[g] = _mm256_setzero_ps();
      a1[g] = _mm256_setzero_ps();
    }
    size_t i = 0;
    for (; i + 16 <= width; i += 16) {
      const __m256 v0 = _mm256_loadu_ps(row + i);
      const __m256 v1 = _mm256_loadu_ps(row + i + 8);
      for (size_t g = 0; g < NQ; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd(_mm256_loadu_ps(qs[g] + i), v0, a0[g]);
          a1[g] = FmaddOrMulAdd(_mm256_loadu_ps(qs[g] + i + 8), v1, a1[g]);
        } else {
          __m256 d = _mm256_sub_ps(_mm256_loadu_ps(qs[g] + i), v0);
          a0[g] = FmaddOrMulAdd(d, d, a0[g]);
          d = _mm256_sub_ps(_mm256_loadu_ps(qs[g] + i + 8), v1);
          a1[g] = FmaddOrMulAdd(d, d, a1[g]);
        }
      }
    }
    for (; i + 8 <= width; i += 8) {
      const __m256 v0 = _mm256_loadu_ps(row + i);
      for (size_t g = 0; g < NQ; ++g) {
        if constexpr (kIp) {
          a0[g] = FmaddOrMulAdd(_mm256_loadu_ps(qs[g] + i), v0, a0[g]);
        } else {
          const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(qs[g] + i), v0);
          a0[g] = FmaddOrMulAdd(d, d, a0[g]);
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

/// Runtime tile-width dispatch: n == 1 degenerates to a batch call (same
/// bits), 2..8 pick the matching GroupTile instantiation.
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
  uint64_t mask = 0;
  const __m256 vtau = _mm256_set1_ps(tau);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 p = _mm256_loadu_ps(partial + i);
    const __m256 gt = _mm256_cmp_ps(p, vtau, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm256_movemask_ps(gt)))
            << i;
  }
  if (i < count) {
    mask |= portable::PruneMaskL2(partial + i, count - i, tau) << i;
  }
  return mask;
}

uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau) {
  uint64_t mask = 0;
  const __m256 vtau = _mm256_set1_ps(tau);
  const __m256 zero = _mm256_setzero_ps();
  // Hoisting max(0, rem_q_sq) feeds the multiply the same operand the
  // scalar CanPrune computes per candidate; _mm256_max_ps(x, 0) returns 0
  // for NaN inputs exactly like std::max(0.0f, x).
  const __m256 rq = _mm256_set1_ps(std::max(0.0f, rem_q_sq));
  const __m256 sign = _mm256_set1_ps(-0.0f);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 rp = _mm256_max_ps(_mm256_loadu_ps(rem_p_sq + i), zero);
    const __m256 rest = _mm256_sqrt_ps(_mm256_mul_ps(rp, rq));
    const __m256 lower =
        _mm256_xor_ps(_mm256_add_ps(_mm256_loadu_ps(partial + i), rest), sign);
    const __m256 gt = _mm256_cmp_ps(lower, vtau, _CMP_GT_OQ);
    mask |= static_cast<uint64_t>(
                static_cast<uint32_t>(_mm256_movemask_ps(gt)))
            << i;
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
  // 8 rows per iteration, one ymm lane per row. For each subspace m the 8
  // rows' byte codes are widened to int32 indices and gathered from the
  // m-th LUT segment; the per-lane adds run in ascending-m order with a
  // single accumulator, the exact addition sequence of the scalar kernel —
  // so the gather kernel is bit-identical to portable::AdcBatch.
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    __m256 acc = _mm256_setzero_ps();
    alignas(32) int32_t idx[8];
    for (size_t m = 0; m < code_size; ++m) {
      const uint8_t* col = codes + r * code_size + m;
      for (size_t l = 0; l < 8; ++l) {
        idx[l] = static_cast<int32_t>(col[l * code_size]);
      }
      const __m256i vi = _mm256_load_si256(reinterpret_cast<__m256i*>(idx));
      const __m256 vals = _mm256_i32gather_ps(lut + m * ksub, vi, 4);
      acc = _mm256_add_ps(acc, vals);
    }
    _mm256_storeu_ps(out + r, acc);
  }
  if (r < count) {
    portable::AdcBatch(lut, ksub, codes + r * code_size, code_size, count - r,
                       out + r);
  }
}

}  // namespace avx2
}  // namespace harmony

#endif  // __AVX2__
