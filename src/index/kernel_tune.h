#ifndef HARMONY_INDEX_KERNEL_TUNE_H_
#define HARMONY_INDEX_KERNEL_TUNE_H_

#include <string>

#include "index/scan_kernel.h"

namespace harmony {

/// \brief A resolved dispatch tier, printable with its compile-time tile
/// constants (docs/kernels.md, "dispatch tiers"). Scans take the tier's
/// table from ScanKernelsFor / ScanKernels; this type only names the tier
/// in the CLI's `kernels:` line and the benchmark headers.
struct KernelTuneTable {
  /// Resolved dispatch tier (never kAuto).
  KernelTier tier = KernelTier::kPortable;

  /// Tier name, then each metric's row_block.query_tile.prefetch constants,
  /// e.g. "avx512 l2=8.4.2 ip=8.4.2".
  std::string ToString() const;
};

/// The table of `requested` (resolved first: kAuto is the widest available
/// tier, or the HARMONY_KERNEL_TIER pin). One static table per tier, so the
/// reference is stable for the process.
const KernelTuneTable& ResolveKernelTune(KernelTier requested);

}  // namespace harmony

#endif  // HARMONY_INDEX_KERNEL_TUNE_H_
