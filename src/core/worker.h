#ifndef HARMONY_CORE_WORKER_H_
#define HARMONY_CORE_WORKER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/partition.h"
#include "index/ivf_index.h"
#include "storage/dim_slice.h"
#include "util/status.h"

namespace harmony {

class GridQuantizer;

/// \brief One IVF list's slice inside a grid block: the list's vectors
/// restricted to the block's dimension range, plus per-row squared norms of
/// the slice. The norms are the "intermediate results" the paper attributes
/// its ~2% dimension-partition space overhead to; Harmony uses them to make
/// inner-product/cosine pruning sound (Cauchy–Schwarz bound on the
/// remaining blocks' contribution).
struct ListSlice {
  DimSlicedMatrix slice;
  std::vector<float> block_norm_sq;  // per local row, ||p^(k)||²
  std::vector<float> total_norm_sq;  // per local row, ||p||² (full vector)
  /// Quantized block stream (docs/quantization.md): row r's PQ code is
  /// `codes[r * code_size .. r * code_size + code_size)`, encoding the row's
  /// coarse-centroid residual (p - c_list, IVFADC style) under the engine's
  /// GridQuantizer block for this dim range. Empty when the store was built
  /// without a quantizer; the float slice always remains (rerank reads
  /// exact rows from it).
  std::vector<uint8_t> codes;
  /// Per-row quantization slack ||r^(k) - decode(code_r)||, where r = p - c
  /// is the row's coarse-centroid residual (IVFADC encoding); this is what
  /// keeps ADC prune bounds conservative.
  std::vector<float> code_err;
  size_t code_size = 0;  ///< Bytes per code row; 0 when codes are absent.

  size_t SizeBytes() const {
    return slice.SizeBytes() +
           (block_norm_sq.size() + total_norm_sq.size() + code_err.size()) *
               sizeof(float) +
           codes.size();
  }
  /// Bytes of the quantized stream alone (codes + per-row slack floats).
  size_t CodeBytes() const {
    return codes.size() + code_err.size() * sizeof(float);
  }
};

/// \brief Everything one machine stores: the grid blocks (vector shard ×
/// dimension block) assigned to it by the partition plan.
class WorkerStore {
 public:
  struct Block {
    size_t vec_shard = 0;
    size_t dim_block = 0;
    DimRange range;
    std::unordered_map<int32_t, ListSlice> lists;  // IVF list id -> slice
  };

  int machine_id() const { return machine_id_; }
  const std::vector<Block>& blocks() const { return blocks_; }

  /// The slice of `list_id` within grid block (vec_shard, dim_block), or
  /// nullptr if this machine does not hold it.
  const ListSlice* FindListSlice(size_t vec_shard, size_t dim_block,
                                 int32_t list_id) const;

  /// Appends one vector's slice to the block (vec_shard, dim_block) for
  /// `list_id`, creating the list slice if this is the list's first row on
  /// this machine. `full_vector` is the complete vector; the store copies
  /// only its own column range (plus norms when `with_norms`, plus a PQ code
  /// row and its residual when `pq` is a trained quantizer — `centroid` must
  /// then be the list's full-dim coarse centroid, since code streams are
  /// IVFADC residual-encoded). The caller is responsible for this machine
  /// actually owning the block.
  Status AppendVector(size_t vec_shard, size_t dim_block, int32_t list_id,
                      DimRange range, const float* full_vector,
                      size_t full_dim, int64_t global_id, bool with_norms,
                      const GridQuantizer* pq = nullptr,
                      const float* centroid = nullptr);

  size_t SizeBytes() const;

  /// Bytes of quantized code streams stored on this machine (PQ codes +
  /// per-row residual slack) — a subset of SizeBytes(); 0 when the store was
  /// built without a quantizer.
  size_t CodeBytes() const;

 private:
  friend Result<std::vector<WorkerStore>> BuildWorkerStores(
      const IvfIndex& index, const PartitionPlan& plan, bool with_norms,
      const GridQuantizer* pq);

  static uint64_t BlockKey(size_t vec_shard, size_t dim_block) {
    return (static_cast<uint64_t>(vec_shard) << 32) |
           static_cast<uint64_t>(dim_block);
  }

  /// Registers blocks_[index] in the keyed lookup; called whenever a block
  /// is appended.
  void IndexBlock(size_t index);

  int machine_id_ = -1;
  std::vector<Block> blocks_;
  /// (vec_shard, dim_block) -> index into blocks_; FindListSlice and
  /// AppendVector are O(1) instead of a linear scan over the machine's
  /// grid blocks.
  std::unordered_map<uint64_t, size_t> block_index_;
};

/// \brief Uncompacted update buffer of one vector shard (docs/mutability.md):
/// the full-dimension rows inserted since the last merge, with their ids and
/// owning IVF lists. The epoch fold slices them into the snapshot's grid
/// blocks and a merge rebuilds from them, so they are the durable source of
/// truth and need no re-slice when the plan's dim ranges change.
struct DeltaShard {
  std::vector<float> full_rows;  ///< Row-major, full dimension.
  std::vector<int64_t> ids;      ///< Global id per delta row.
  std::vector<int32_t> lists;    ///< Owning IVF list per delta row.
  size_t dim = 0;

  size_t rows() const { return ids.size(); }

  void Append(const float* row, size_t full_dim, int64_t id, int32_t list);

  /// Buffered bytes: full rows + id/list columns.
  size_t SizeBytes() const;
};

/// \brief The store view one batch executes against, acquired once at plan
/// time: a generation's worker stores (frozen blocks with the generation's
/// delta rows folded in) plus the live tombstone bitset. Both engines replay
/// the identical generation because they share this one snapshot; the
/// shared_ptr pins the store payload for in-flight chains while a merge
/// swaps the engine's current generation underneath.
struct StoreSnapshot {
  std::shared_ptr<const std::vector<WorkerStore>> stores;
  const uint64_t* tombstones = nullptr;  ///< Bitset over global ids; may be null.
  size_t tombstone_words = 0;
  uint64_t generation = 0;
};

/// \brief Materializes per-machine storage for a plan: every grid block is
/// copied (sliced) to exactly one machine — the paper's "Pre-assign" build
/// stage. Total stored payload is NB × D floats with no duplication.
/// `with_norms` materializes the per-row norm columns needed for sound
/// inner-product pruning (only useful when the plan has > 1 dimension
/// block and the metric is IP/cosine). A trained `pq` additionally encodes
/// every block row into its quantized code stream (ListSlice::codes) with
/// per-row residual slack, enabling `use_pq_streams` execution.
Result<std::vector<WorkerStore>> BuildWorkerStores(
    const IvfIndex& index, const PartitionPlan& plan, bool with_norms,
    const GridQuantizer* pq = nullptr);

}  // namespace harmony

#endif  // HARMONY_CORE_WORKER_H_
