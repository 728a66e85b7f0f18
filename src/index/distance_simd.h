#ifndef HARMONY_INDEX_DISTANCE_SIMD_H_
#define HARMONY_INDEX_DISTANCE_SIMD_H_

namespace harmony {
namespace simd {

/// True when this build carries the AVX2 scan kernels
/// (scan_kernel_avx2.cc, compiled with -mavx2 -mfma) AND the running CPU
/// supports them.
bool Avx2Available();

/// True when this build carries the AVX-512 scan kernels
/// (scan_kernel_avx512.cc, compiled with -mavx512f/dq/bw) AND the running
/// CPU supports those sets.
bool Avx512Available();

}  // namespace simd
}  // namespace harmony

#endif  // HARMONY_INDEX_DISTANCE_SIMD_H_
