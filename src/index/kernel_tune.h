#ifndef HARMONY_INDEX_KERNEL_TUNE_H_
#define HARMONY_INDEX_KERNEL_TUNE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "index/distance.h"
#include "index/scan_kernel.h"

namespace harmony {

/// \brief One resolved kernel choice: the tier table plus the tile shape
/// its batch/group kernels run with. Scans dereference `table`, so every
/// scan caller sets it: the execution core from the batch's recorded
/// KernelTuneTable (ExecContext::DispatchFor), scans outside an execution
/// context from DefaultDispatch.
struct KernelDispatch {
  const ScanKernelTable* table = nullptr;
  KernelShape shape;
};

/// \brief The startup micro-autotuner's output (docs/kernels.md,
/// "dispatch tiers and autotuning"): per (metric, dim-block width bucket),
/// the tile shape the batched/group kernels should run with, under one
/// resolved dispatch tier.
///
/// Determinism contract: shapes are bit-transparent — every (tier, shape)
/// computes identical result bits (scan_kernel.h), so the tuner can be
/// arbitrarily noisy without perturbing results, goldens, or byte/op
/// accounting. What IS pinned is the *replay*: MakeExecContext records the
/// resolved table in the ExecContext, both engines read the same object, so
/// simulated and threaded runs of one batch always execute the identical
/// kernels. Tests pin the whole table via ExecOptions::kernel_tune or the
/// HARMONY_KERNEL_TUNE profile string; `--kernel-tier` pins the tier.
struct KernelTuneTable {
  /// Width buckets: [0,16) [16,32) [32,64) [64,128) [128,inf). Bucket 0 is
  /// below every SIMD cutover (the portable fall-through), so its shape is
  /// never measured, only defaulted.
  static constexpr size_t kNumBuckets = 5;

  static size_t WidthBucket(size_t width) {
    if (width < 16) return 0;
    if (width < 32) return 1;
    if (width < 64) return 2;
    if (width < 128) return 3;
    return 4;
  }

  /// Resolved dispatch tier (never kAuto).
  KernelTier tier = KernelTier::kPortable;
  /// shapes[metric][bucket]; metric index 0 = L2, 1 = IP/cosine.
  KernelShape shapes[2][kNumBuckets];

  static size_t MetricIndex(Metric m) { return m == Metric::kL2 ? 0 : 1; }

  const KernelShape& shape(Metric m, size_t width) const {
    return shapes[MetricIndex(m)][WidthBucket(width)];
  }

  /// The tier table + tuned shape for one stage width.
  KernelDispatch DispatchFor(Metric m, size_t width) const {
    return KernelDispatch{&ScanKernelsFor(tier), shape(m, width)};
  }

  bool operator==(const KernelTuneTable& o) const;

  /// Profile string round-trip, e.g.
  /// "avx512 l2=4.4.2,8.4.4,8.4.4,8.8.4,8.8.8 ip=4.4.2,...": tier name,
  /// then per metric the kNumBuckets shapes as row_block.query_tile.prefetch.
  std::string ToString() const;
  static bool Parse(std::string_view profile, KernelTuneTable* out);
};

/// Default shapes for `tier` (resolved first) — the one place each tier's
/// default tile shape is written down: the shapes of scans that run outside
/// an execution context (DefaultDispatch), the fallback when tuning is
/// skipped, and the seed the measured search starts from.
KernelTuneTable DefaultKernelTune(KernelTier tier);

/// The process-wide ScanKernels() table with its default shape for
/// (metric, width): DefaultKernelTune(kAuto), built once. The dispatch of
/// the scans that never wait on the autotuner — the IVF probe and list
/// scan and k-means.
KernelDispatch DefaultDispatch(Metric m, size_t width);

/// Runs the micro-autotuner for `tier` (resolved first; kAuto takes the
/// HARMONY_KERNEL_TIER pin when set, else picks the best available): times
/// the candidate shapes — row-block 4/6/8 x prefetch 0/2/4/8 on the batch
/// kernels, query-tile 2/4/8 on the group kernels — per (metric, width
/// bucket) on synthetic rows and keeps the fastest, with a fixed candidate
/// order and strict-improvement ties so the pick is deterministic given the
/// timings. A few milliseconds of work.
KernelTuneTable MeasureKernelTune(KernelTier tier);

/// The process-wide tune table for `requested` (resolved), measured once on
/// first use and cached — or, when the HARMONY_KERNEL_TUNE environment
/// variable holds a parsable profile whose tier is available, that profile
/// verbatim (the cross-process pin for reproducible runs). Thread-safe.
const KernelTuneTable& ResolveKernelTune(KernelTier requested);

}  // namespace harmony

#endif  // HARMONY_INDEX_KERNEL_TUNE_H_
