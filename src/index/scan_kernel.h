#ifndef HARMONY_INDEX_SCAN_KERNEL_H_
#define HARMONY_INDEX_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace harmony {

/// \brief Kernel dispatch tier (docs/kernels.md, "dispatch tiers").
///
/// `kAuto` resolves to the widest tier this build carries AND the running
/// CPU supports; the explicit tiers pin dispatch for tests, goldens and
/// perf bisection. The AVX-512 kernels are constructed to be bit-identical
/// to the AVX2 ones (each 512-bit accumulator is two independent 256-bit
/// lanes), so `kAvx2` and `kAvx512` are interchangeable without changing a
/// single result bit; `kPortable` is its own bitwise family above the
/// width-16 cutover (a different accumulator split).
enum class KernelTier : uint8_t { kAuto = 0, kPortable, kAvx2, kAvx512 };

/// "auto", "portable", "avx2" or "avx512".
const char* KernelTierName(KernelTier tier);
bool ParseKernelTier(std::string_view name, KernelTier* out);

/// True when this build carries the tier's TU and the running CPU supports
/// it. kAuto and kPortable are always available.
bool KernelTierAvailable(KernelTier tier);

/// HARMONY_KERNEL_TIER, parsed once: the process-wide pin CI legs use to
/// run a whole test binary on one tier — ScanKernels() and the engine's
/// recorded table alike. kAuto when unset, unparsable or unavailable.
KernelTier PinnedKernelTier();

/// Maps a requested tier to the one dispatch will actually use: kAuto picks
/// the widest available tier (the HARMONY_KERNEL_TIER environment variable,
/// read once, overrides the pick — the CI lever for running a whole process
/// on a pinned tier); an explicitly requested but unavailable tier falls
/// back to the widest available one.
KernelTier ResolveKernelTier(KernelTier requested);

/// \brief Batched block-scan kernels (docs/kernels.md).
///
/// The dimension-block scan (Algorithm 1) spends its time accumulating
/// partial L2/IP between one query slice and many contiguous rows of a
/// `DimSlicedMatrix`. The kernels here are the batched counterparts of the
/// single-row `PartialL2Sq`/`PartialIp` pair, with three properties the
/// engines rely on:
///
///  * **Hoisted dispatch.** `ScanKernels()` resolves the CPU-specific
///    kernel table exactly once; hot loops call through function pointers
///    instead of re-checking CPU features per candidate.
///  * **Layout contract.** A batched call covers `count` rows stored
///    back-to-back with stride `width` — exactly the row layout of a
///    `DimSlicedMatrix` (see `DimSlicedMatrix::RowBlock`). Kernels
///    register-block a row group at a time (a compile-time row block per
///    tier and metric, below), reusing each query load across the row
///    group, and software-prefetch kPrefetchRows upcoming rows.
///  * **Bitwise identity.** For every row, the accumulation order (chunking,
///    accumulator splitting, horizontal reduction, scalar tail) is exactly
///    that of the single-row kernel of the same tier, so batched, grouped
///    and per-row scans produce bit-identical partial sums. This is what
///    keeps determinism tests, fault-replay byte-identity, and the
///    simulator's `DistanceOpCost` accounting unchanged, whatever row block
///    or query tile a tier runs.
struct ScanKernelTable {
  /// Single-row partials; same results as PartialL2Sq / PartialIp.
  float (*l2_row)(const float* a, const float* b, size_t width);
  float (*ip_row)(const float* a, const float* b, size_t width);

  /// Batched partials over `count` contiguous rows (stride == width):
  /// `accum[i] += partial(q, rows + i * width)` for i in [0, count). Counts
  /// below the tier's row block dispatch to the per-row path — the
  /// small-batch guard that keeps tiny runs at per-row cost.
  void (*l2_batch)(const float* q, const float* rows, size_t count,
                   size_t width, float* accum);
  void (*ip_batch)(const float* q, const float* rows, size_t count,
                   size_t width, float* accum);

  /// Query-group batched partials (shared scans): for each query g in
  /// [0, nq), `accums[g][i] += partial(qs[g], rows + i * width)` over the
  /// same `count` contiguous rows. The row block is streamed once per
  /// query tile (kMaxQueryGroup queries) instead of once per query;
  /// per (query, row) the accumulation order is exactly that of
  /// `l2_batch`/`ip_batch`, so a group call is bit-identical to nq
  /// independent batch calls. `nq` may exceed the tile width — kernels tile
  /// the query axis internally.
  void (*l2_group)(const float* const* qs, size_t nq, const float* rows,
                   size_t count, size_t width, float* const* accums);
  void (*ip_group)(const float* const* qs, size_t nq, const float* rows,
                   size_t count, size_t width, float* const* accums);

  /// Vectorized prune bounds over up to 64 candidates: bit i of the result
  /// is set iff candidate i can be pruned, with decisions identical to the
  /// scalar `CanPrune` (core/pruning.h). L2 prunes when `partial[i] > tau`;
  /// IP/cosine when `-(partial[i] + sqrt(max(0, rem_p_sq[i]) *
  /// max(0, rem_q_sq))) > tau`. 64-wide so one AVX-512 call fills a whole
  /// mask register chunk (four 16-lane compares).
  uint64_t (*prune_mask_l2)(const float* partial, size_t count, float tau);
  uint64_t (*prune_mask_ip)(const float* partial, const float* rem_p_sq,
                            size_t count, float rem_q_sq, float tau);

  /// Batched ADC over `count` contiguous code rows (stride == code_size
  /// bytes): `out[i] = sum_m lut[m * ksub + codes[i * code_size + m]]`.
  /// Writes block-local ADC sums (does NOT accumulate) — the caller folds
  /// them into running partials so the same kernel serves L2 and IP tables.
  /// Per row the additions run in ascending-m order with one accumulator,
  /// matching ProductQuantizer::AdcDistance bit for bit.
  void (*adc_batch)(const float* lut, size_t ksub, const uint8_t* codes,
                    size_t code_size, size_t count, float* out);

  /// "avx512", "avx2" or "portable"; surfaced in logs and
  /// BENCH_kernels.json.
  const char* name;
};

/// The process-wide kernel table, resolved once (first call) from the CPU's
/// capabilities (and HARMONY_KERNEL_TIER). Never changes afterwards.
const ScanKernelTable& ScanKernels();

/// The table of one specific tier; `tier` must be available (or kAuto /
/// kPortable). Used by the execution core to honor a plan-recorded tier.
const ScanKernelTable& ScanKernelsFor(KernelTier tier);

/// Portable reference kernels — the fallback table entries and the ground
/// truth the SIMD kernels are tested against. Also the scalar bodies the
/// SIMD kernels fall back to below the width cutover, preserving the
/// historical `width >= 16` dispatch cutover bit-for-bit.
namespace portable {
float L2Row(const float* a, const float* b, size_t width);
float IpRow(const float* a, const float* b, size_t width);
void L2Batch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void IpBatch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void L2Group(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
void IpGroup(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
uint64_t PruneMaskL2(const float* partial, size_t count, float tau);
uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau);
void AdcBatch(const float* lut, size_t ksub, const uint8_t* codes,
              size_t code_size, size_t count, float* out);

/// Codeword-parallel band scoring for product quantizers: for every
/// codeword c in [0, ksub), `out[c]` is L2Row (IpRow) of `q` against
/// codeword c, whose component j is `book[j * ksub + c]` (a dimension-major
/// codebook). Lanes run over codewords and each lane repeats the row body's
/// exact accumulator sequence, so every value is bitwise the row kernel's.
/// Every tier's row kernel is this portable body below
/// kPortableRowWidthCutover, so below it the values equal any tier's
/// l2_row / ip_row.
void L2Codewords(const float* q, const float* book, size_t width,
                 size_t ksub, float* out);
void IpCodewords(const float* q, const float* book, size_t width,
                 size_t ksub, float* out);
}  // namespace portable

/// Row width below which every tier's row, batch and group kernels run the
/// portable bodies (the historical dispatch cutover).
inline constexpr size_t kPortableRowWidthCutover = 16;

/// AVX2 kernels, defined in scan_kernel_avx2.cc (compiled with -mavx2;
/// referenced only when the build carries that TU and the CPU supports
/// AVX2). Row/batch kernels fall back to the portable bodies below
/// width 16, matching the historical dispatch cutover.
namespace avx2 {
float L2Row(const float* a, const float* b, size_t width);
float IpRow(const float* a, const float* b, size_t width);
void L2Batch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void IpBatch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void L2Group(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
void IpGroup(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
uint64_t PruneMaskL2(const float* partial, size_t count, float tau);
uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau);
void AdcBatch(const float* lut, size_t ksub, const uint8_t* codes,
              size_t code_size, size_t count, float* out);
}  // namespace avx2

/// AVX-512 kernels, defined in scan_kernel_avx512.cc (compiled with
/// -mavx512f/dq/bw; referenced only when the build carries that TU and the
/// CPU supports those sets). Bit-identical to the avx2 kernels: each
/// 512-bit accumulator register is treated as two independent 256-bit
/// lanes, so one 512-bit FMA over a 16-float chunk computes lane-for-lane
/// exactly what the AVX2 kernels' two 256-bit FMAs compute, and the
/// reduction splits the halves back apart and runs the AVX2 reduction tree.
/// Widths below 16 fall back to the portable bodies like every other tier.
namespace avx512 {
float L2Row(const float* a, const float* b, size_t width);
float IpRow(const float* a, const float* b, size_t width);
void L2Batch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void IpBatch(const float* q, const float* rows, size_t count, size_t width,
             float* accum);
void L2Group(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
void IpGroup(const float* const* qs, size_t nq, const float* rows,
             size_t count, size_t width, float* const* accums);
uint64_t PruneMaskL2(const float* partial, size_t count, float tau);
uint64_t PruneMaskIp(const float* partial, const float* rem_p_sq,
                     size_t count, float rem_q_sq, float tau);
void AdcBatch(const float* lut, size_t ksub, const uint8_t* codes,
              size_t code_size, size_t count, float* out);
}  // namespace avx512

/// Maximum candidates covered by one prune-mask call.
inline constexpr size_t kPruneMaskWidth = 64;

/// Query tile of every tier's group kernels, and the default query-group
/// cap of the serving frontend (ServePolicy::max_group) and of the probes
/// that size one serving group. It matches the AVX2 group tile: two partial
/// accumulators per query (16-wide chunking), so 4 queries consume 8 of the
/// 16 ymm registers and leave room for the shared row chunks and the
/// difference temporary. Larger groups are tiled 4 queries at a time.
inline constexpr size_t kMaxQueryGroup = 4;

/// Rows every tier's batch and group kernels prefetch ahead of the rows
/// they are scoring, and the run-head rows the block scan hints across run
/// boundaries.
inline constexpr size_t kPrefetchRows = 2;

/// Row blocks of the batch kernels. AVX2 blocks L2 by 4 rows and IP by 6:
/// IP has no subtract temporary, so 6 rows x 2 accumulators plus the two
/// query registers still fit the 16 ymm registers, and the wider block
/// amortizes each query load over 6 FMAs instead of 4 (the kernel is
/// load-port-bound). AVX-512 blocks both by 8 rows: one zmm accumulator per
/// row makes that free. The portable tier has no register blocking.
namespace avx2 {
inline constexpr size_t kL2RowBlock = 4;
inline constexpr size_t kIpRowBlock = 6;
}  // namespace avx2
namespace avx512 {
inline constexpr size_t kRowBlock = 8;
}  // namespace avx512

}  // namespace harmony

#endif  // HARMONY_INDEX_SCAN_KERNEL_H_
