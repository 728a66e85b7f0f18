#ifndef HARMONY_CORE_BLOCK_SCAN_H_
#define HARMONY_CORE_BLOCK_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/worker.h"
#include "index/distance.h"
#include "index/kernel_tune.h"

namespace harmony {

/// \brief The ADC tables one PQ-stream stage scans with: dimension block
/// d's table for each list of one chain. Codes are coarse-centroid
/// residuals, so the table depends on the probed list. Built by the stage
/// that scans the block (BuildStageAdcTables, core/exec_plan.h), immutable
/// once built, and freed with the stage's scan parameters.
struct StageAdcTables {
  /// Every list's table back to back, each M_d * ksub_d floats in
  /// subspace-major order (the adc_batch kernel layout).
  std::vector<float> values;
  /// tables[li] points at chain list li's table inside `values`; null for
  /// lists with no slice in the block (they carry no candidates).
  std::vector<const float*> tables;
};

/// \brief One dimension-block scan stage over a chain's candidate arrays,
/// shared by the simulated (core/pipeline.cc) and threaded
/// (core/coordinator.cc) engines.
///
/// The candidate set is a struct-of-arrays (id/list/row/partial[/rem_p_sq])
/// built in list-major order: candidates of the same IVF list are adjacent
/// with ascending local rows, and in-place compaction preserves that order.
/// The batched path exploits it by splitting survivors into runs of
/// consecutive rows of one list slice and handing each run to the batched
/// kernels (index/scan_kernel.h), which stream the rows contiguously. A
/// vectorized prune pass evaluates the CanPrune bounds into a survivor mask
/// before any row data is touched.
///
/// The reference path is the historical per-candidate loop (single-row
/// kernels, scalar prune, interleaved compaction). Both paths are bitwise
/// identical in results and op counts; ExecOptions::use_batched_kernels
/// selects between them and the regression tests assert the identity.
struct BlockScanParams {
  Metric metric = Metric::kL2;
  /// Carry and update the remaining-norm column (IP/cosine with > 1 block).
  bool use_norms = false;
  /// Evaluate the CanPrune bound this stage (threshold already tightened).
  bool prune = false;
  float tau = 0.0f;
  /// Remaining query norm of the *unprocessed* blocks (IP pruning bound).
  float rem_q_sq = 0.0f;
  /// Query slice of this dimension block.
  const float* q_slice = nullptr;
  size_t width = 0;
  /// Per chain-list slice table for this block, indexed by the candidates'
  /// `list` values; entries may be null only for lists with no candidates.
  const ListSlice* const* slices = nullptr;
  /// Batched kernel path (true) vs historical per-candidate reference.
  bool use_batched = true;
  /// Quantized streams (docs/quantization.md), active when `luts` is
  /// non-null: the stage walks the slices' PQ code streams through the ADC
  /// kernel instead of float rows. Codes are coarse-centroid residuals, so
  /// the ADC table is per probed list: `luts[li]` is the table of (query,
  /// chain list li, this block), indexed like `slices`. When the
  /// parameters come from MakeStageScanParams, `luts` points into
  /// `adc_tables`, which keeps the tables alive as long as any copy of the
  /// parameters. `partial` accumulates the raw ADC estimate; the separate
  /// `bound` column accumulates the conservative prune bound (L2:
  /// (max(0, sqrt(adc) - err))², a lower bound on the true partial; IP:
  /// adc + ||q^(d)|| * err, an upper bound), and the prune masks test
  /// `bound` in place of `partial`.
  const float* const* luts = nullptr;  ///< Per chain-list ADC tables.
  std::shared_ptr<const StageAdcTables> adc_tables;  ///< Owner of `luts`.
  size_t ksub = 0;               ///< Codewords per subspace (LUT row length).
  size_t code_size = 0;          ///< Bytes per code row (M_d).
  float q_band_norm = 0.0f;      ///< IP only: ||q^(d)||.
  /// Resolved kernel dispatch of the batch (ExecContext::Dispatch): the
  /// tier table plus the tile shape the kernels run with. Required —
  /// the scan dereferences the table. Shapes are bit-transparent, so the
  /// shape moves throughput only.
  KernelDispatch dispatch;
};

struct BlockScanCounters {
  uint64_t ops = 0;      ///< Scalar op charge (survivors x width).
  uint64_t dropped = 0;  ///< Candidates pruned before touching row data.
};

/// Scans candidates [begin, begin+count) of the SoA arrays in place,
/// compacting survivors to [begin, begin+w) with their accumulated
/// partials, and returns w. `rem_p_sq` may be null when
/// `params.use_norms` is false; `bound` may be null when the stage is not
/// a PQ stream (params.lut == nullptr).
size_t ScanBlock(const BlockScanParams& params, size_t begin, size_t count,
                 int64_t* id, int32_t* list, int32_t* row, float* partial,
                 float* rem_p_sq, float* bound, BlockScanCounters* counters);

/// One member of a query-group shared scan: the member's scan parameters —
/// exactly what a solo ScanBlock of its candidates takes (per-query τ, prune
/// gate, query slice, slice table, ADC tables) — plus its candidate arrays
/// (same list-major SoA layout and in-place compaction as ScanBlock).
/// `list` values are member-local probe indices; `global_lists[li]` maps
/// them to batch-wide IVF list ids, which is how co-probing members are
/// matched onto the same slice (`params.slices` is indexed by the local
/// values; co-probing members resolve to the *same* ListSlice).
struct GroupMemberScan {
  BlockScanParams params;
  int64_t* id = nullptr;
  int32_t* list = nullptr;
  int32_t* row = nullptr;
  float* partial = nullptr;
  float* rem_p_sq = nullptr;  ///< May be null when !params.use_norms.
  float* bound = nullptr;     ///< PQ prune-bound column; null off PQ.
  size_t count = 0;
  const int32_t* global_lists = nullptr;
  /// Outputs: survivor count (arrays compacted to [0, survivors)) and the
  /// member's op/prune charges, identical to a solo ScanBlock of the same
  /// candidates.
  size_t survivors = 0;
  BlockScanCounters counters;
};

/// Shared scan of one dimension block across a query group. Per member the
/// arithmetic is bit-identical to a solo ScanBlock (prune-compact with the
/// member's own tau, then per-(query,row) accumulation in the frozen kernel
/// order); what the group shares is the *row streaming*: survivors of
/// co-probing members are merge-walked per IVF list into row-aligned tiles,
/// and each tile's rows are streamed from memory once for all members that
/// want them (query-tiled group kernels) instead of once per member.
/// Returns the bytes of row data streamed, each tile counted once — float
/// row bytes normally, code-stream bytes under PQ streams. Every member
/// scans the same dimension block, so the stage-wide parameter fields
/// (metric, norms, width, kernel path and dispatch, code geometry) are read
/// from the first member.
uint64_t ScanBlockGroup(GroupMemberScan* members, size_t num_members);

}  // namespace harmony

#endif  // HARMONY_CORE_BLOCK_SCAN_H_
