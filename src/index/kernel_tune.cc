#include "index/kernel_tune.h"

#include <cstdio>

namespace harmony {

namespace {

constexpr KernelTuneTable kPortableTune{KernelTier::kPortable};
constexpr KernelTuneTable kAvx2Tune{KernelTier::kAvx2};
constexpr KernelTuneTable kAvx512Tune{KernelTier::kAvx512};

}  // namespace

std::string KernelTuneTable::ToString() const {
  // The portable tier has no register blocking; it prints a nominal 4.
  size_t l2 = 4, ip = 4;
  if (tier == KernelTier::kAvx2) {
    l2 = avx2::kL2RowBlock;
    ip = avx2::kIpRowBlock;
  } else if (tier == KernelTier::kAvx512) {
    l2 = ip = avx512::kRowBlock;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s l2=%zu.%zu.%zu ip=%zu.%zu.%zu",
                KernelTierName(tier), l2, kMaxQueryGroup, kPrefetchRows, ip,
                kMaxQueryGroup, kPrefetchRows);
  return buf;
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

}  // namespace harmony
