#ifndef HARMONY_INDEX_KERNEL_TUNE_H_
#define HARMONY_INDEX_KERNEL_TUNE_H_

#include <string>

#include "index/distance.h"
#include "index/scan_kernel.h"

namespace harmony {

/// \brief One resolved kernel choice: the tier table plus the tile shape
/// its batch/group kernels run with. Scans dereference `table`, so every
/// scan caller sets it: the execution core from the batch's recorded
/// KernelTuneTable (ExecContext::Dispatch), scans outside an execution
/// context from DefaultDispatch.
struct KernelDispatch {
  const ScanKernelTable* table = nullptr;
  KernelShape shape;
};

/// \brief A dispatch tier with its fixed tile shape per metric
/// (docs/kernels.md, "dispatch tiers and tile shapes").
///
/// Shapes are bit-transparent — every (tier, shape) computes identical
/// result bits (scan_kernel.h) — so the shape moves throughput only.
/// MakeExecContext records the table in the ExecContext and both engines
/// read the same object, so simulated and threaded runs of one batch
/// execute the identical kernels. `--kernel-tier` / HARMONY_KERNEL_TIER
/// pin the tier.
struct KernelTuneTable {
  /// Resolved dispatch tier (never kAuto).
  KernelTier tier = KernelTier::kPortable;
  KernelShape l2;
  /// Inner product and cosine.
  KernelShape ip;

  const KernelShape& shape(Metric m) const {
    return m == Metric::kL2 ? l2 : ip;
  }

  /// The tier table + the metric's shape.
  KernelDispatch DispatchFor(Metric m) const {
    return KernelDispatch{&ScanKernelsFor(tier), shape(m)};
  }

  /// Tier name, then each metric's shape as row_block.query_tile.prefetch,
  /// e.g. "avx512 l2=8.4.2 ip=8.4.2".
  std::string ToString() const;
};

/// The fixed table of `requested` (resolved first: kAuto is the widest
/// available tier, or the HARMONY_KERNEL_TIER pin). One static table per
/// tier, so the reference is stable for the process.
const KernelTuneTable& ResolveKernelTune(KernelTier requested);

/// ResolveKernelTune(kAuto).DispatchFor(m): the dispatch of the scans that
/// run outside an execution context — the IVF probe and list scan and
/// k-means.
KernelDispatch DefaultDispatch(Metric m);

}  // namespace harmony

#endif  // HARMONY_INDEX_KERNEL_TUNE_H_
