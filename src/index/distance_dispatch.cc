#include "index/distance_simd.h"

namespace harmony {
namespace simd {

bool Avx2Available() {
#if defined(HARMONY_HAVE_AVX2_TU)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx512Available() {
#if defined(HARMONY_HAVE_AVX512_TU)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

}  // namespace simd
}  // namespace harmony
