#include "index/kernel_tune.h"

#include <cstdio>

namespace harmony {

namespace {

// Every tier prefetches 2 rows ahead and tiles groups by 4 queries. AVX2
// blocks L2 by 4 rows and IP by 6: IP has no subtract temporary, so 6 rows
// x 2 accumulators plus the two query registers still fit the 16 ymm
// registers, and the wider group amortizes each query load over 6 FMAs
// instead of 4 (the kernel is load-port-bound, so fewer loads per row is
// the win). AVX-512 blocks both by 8 rows: one zmm accumulator per row
// makes that free. The portable tier has no register blocking, so its row
// block is nominal.
constexpr KernelTuneTable kPortableTune{KernelTier::kPortable, {4, 4, 2},
                                        {4, 4, 2}};
constexpr KernelTuneTable kAvx2Tune{KernelTier::kAvx2, {4, 4, 2}, {6, 4, 2}};
constexpr KernelTuneTable kAvx512Tune{KernelTier::kAvx512, {8, 4, 2},
                                      {8, 4, 2}};

std::string ShapeString(const KernelShape& s) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u", s.row_block, s.query_tile,
                s.prefetch);
  return buf;
}

}  // namespace

std::string KernelTuneTable::ToString() const {
  return std::string(KernelTierName(tier)) + " l2=" + ShapeString(l2) +
         " ip=" + ShapeString(ip);
}

const KernelTuneTable& ResolveKernelTune(KernelTier requested) {
  switch (ResolveKernelTier(requested)) {
    case KernelTier::kAvx512:
      return kAvx512Tune;
    case KernelTier::kAvx2:
      return kAvx2Tune;
    default:
      return kPortableTune;
  }
}

KernelDispatch DefaultDispatch(Metric m) {
  static const KernelTuneTable& t = ResolveKernelTune(KernelTier::kAuto);
  return t.DispatchFor(m);
}

}  // namespace harmony
