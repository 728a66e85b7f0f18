#ifndef HARMONY_INDEX_PQ_H_
#define HARMONY_INDEX_PQ_H_

#include <cstdint>
#include <vector>

#include "storage/dataset.h"
#include "storage/dim_slice.h"
#include "util/status.h"
#include "util/topk.h"

namespace harmony {

/// \brief Product-quantizer configuration: vectors are split into
/// `num_subspaces` contiguous dimension bands, each quantized to one of
/// `1 << bits` codewords learned by k-means.
struct PqParams {
  size_t num_subspaces = 8;  // M
  size_t bits = 8;           // log2(codewords per subspace), <= 8
  size_t train_iters = 10;
  uint64_t seed = 42;
  /// k-means worker threads (KMeansParams::num_threads); codebooks are
  /// bit-identical for every count.
  size_t num_threads = 1;
};

/// \brief Product quantizer (Jégou et al.), the lossy-compression
/// alternative the paper contrasts with its distribution approach
/// (Section 2.1). Encodes a d-dim float vector into M bytes; asymmetric
/// distance computation (ADC) approximates L2² from a per-query lookup
/// table without decompressing.
class ProductQuantizer {
 public:
  explicit ProductQuantizer(PqParams params = PqParams()) : params_(params) {}

  const PqParams& params() const { return params_; }
  bool trained() const { return !codebooks_.empty(); }
  size_t dim() const { return dim_; }
  size_t num_subspaces() const { return params_.num_subspaces; }
  size_t codewords() const { return size_t{1} << params_.bits; }
  size_t code_size() const { return params_.num_subspaces; }  // bytes

  /// Learns the per-subspace codebooks from training vectors.
  Status Train(const DatasetView& data);

  /// Encodes one vector into `code_size()` bytes.
  void Encode(const float* vec, uint8_t* code) const;

  /// Encodes every row; result is row-major n x code_size().
  std::vector<uint8_t> EncodeBatch(const DatasetView& data) const;

  /// Reconstructs the quantized approximation of `code` into `out` (dim()
  /// floats).
  void Decode(const uint8_t* code, float* out) const;

  /// Fills the per-query ADC table: `table[m * codewords() + c]` is the
  /// squared L2 distance between the query's m-th band and codeword c.
  /// `table` must hold num_subspaces() * codewords() floats.
  void ComputeLookupTable(const float* query, float* table) const;

  /// Inner-product variant: `table[m * codewords() + c]` is the dot product
  /// between the query's m-th band and codeword c, so the ADC sum estimates
  /// the full inner product of query and vector over dim().
  void ComputeLookupTableIp(const float* query, float* table) const;

  /// Approximate squared L2 distance from a precomputed lookup table.
  float AdcDistance(const float* table, const uint8_t* code) const;

  /// Subspace m's dimension range.
  DimRange Subspace(size_t m) const { return bands_[m]; }

  size_t SizeBytes() const;

 private:
  /// Scores `sub` (band m of a vector) against every codeword of band m
  /// into `out` (codewords() floats): L2² when `ip` is false, the inner
  /// product otherwise. Bitwise the per-codeword row kernel at every width.
  void ScoreBand(size_t m, const float* sub, bool ip, float* out) const;

  PqParams params_;
  size_t dim_ = 0;
  std::vector<DimRange> bands_;
  /// codebooks_[m] is band m's codebook, dimension-major: component j of
  /// codeword c is codebooks_[m][j * codewords() + c], so one band
  /// component of every codeword is one contiguous run (the layout the
  /// codeword-parallel scoring kernel streams).
  std::vector<std::vector<float>> codebooks_;
};

/// \brief Grid-aligned product quantization: one ProductQuantizer per
/// partition-plan dimension block, so each (vec_shard, dim_block) grid block
/// can stream M_b-byte codes instead of width_b * 4 float bytes. The total
/// subspace budget `num_subspaces` is apportioned across blocks by width
/// (M_b ~ M * width_b / dim, at least 1 per block, at most width_b), and the
/// per-block seed is derived deterministically from the base seed and the
/// block index, so a (data, ranges, params) triple always yields the same
/// codebooks regardless of thread count or engine.
struct GridPqParams {
  size_t num_subspaces = 16;  ///< Across the full dimension, split per block.
  size_t bits = 8;            ///< log2(codewords per subspace), <= 8.
  size_t train_iters = 10;
  uint64_t seed = 42;
  /// k-means worker threads per subspace; codebooks and codes are
  /// bit-identical for every count.
  size_t num_threads = 1;
};

class GridQuantizer {
 public:
  GridQuantizer() = default;

  bool trained() const { return !blocks_.empty(); }
  size_t dim() const { return dim_; }
  size_t num_blocks() const { return blocks_.size(); }
  const GridPqParams& params() const { return params_; }
  const std::vector<DimRange>& ranges() const { return ranges_; }
  /// Block d's quantizer; its dim() is ranges()[d].width() and its code
  /// operates on the columns [ranges()[d].begin, ranges()[d].end).
  const ProductQuantizer& block(size_t d) const { return blocks_[d]; }
  /// Bytes per row in block d's code stream.
  size_t code_size(size_t d) const { return blocks_[d].code_size(); }

  /// Trains one quantizer per dim range on the corresponding columns of
  /// `data`. When the training set is smaller than 2^bits the codeword
  /// budget is clamped (deterministically, same for every block) so small
  /// corpora still train. Retrains from scratch if already trained.
  Status Train(const DatasetView& data, const std::vector<DimRange>& ranges,
               const GridPqParams& params);

  void Reset() {
    blocks_.clear();
    ranges_.clear();
    dim_ = 0;
  }

  /// Codebook footprint across all blocks.
  size_t SizeBytes() const;

 private:
  GridPqParams params_;
  size_t dim_ = 0;
  std::vector<DimRange> ranges_;
  std::vector<ProductQuantizer> blocks_;
};

/// \brief IVF with PQ-compressed residuals (IVFADC): the standard
/// memory-frugal single-node baseline. Stores M bytes per vector instead of
/// 4*d, at the cost of approximate distances (and hence recall).
class IvfPqIndex {
 public:
  struct Params {
    size_t nlist = 64;
    PqParams pq;
    size_t train_iters = 8;
    uint64_t seed = 42;
  };

  IvfPqIndex() : IvfPqIndex(Params{}) {}
  explicit IvfPqIndex(Params params) : params_(params) {}

  bool trained() const { return trained_; }
  size_t dim() const { return centroids_.dim(); }
  size_t nlist() const { return centroids_.size(); }
  size_t num_vectors() const { return num_vectors_; }

  /// Trains the coarse quantizer and the PQ codebooks (on residuals).
  Status Train(const DatasetView& data);

  /// Encodes and stores vectors (residual-encoded per coarse cell).
  Status Add(const DatasetView& data);

  /// ADC search over the `nprobe` nearest cells; ascending approximate
  /// distance.
  Result<std::vector<Neighbor>> Search(const float* query, size_t k,
                                       size_t nprobe) const;

  /// Compressed index footprint (centroids + codebooks + codes + ids).
  size_t SizeBytes() const;

 private:
  Params params_;
  ProductQuantizer pq_;
  Dataset centroids_;
  std::vector<std::vector<int64_t>> list_ids_;
  std::vector<std::vector<uint8_t>> list_codes_;  // n_l x code_size
  size_t num_vectors_ = 0;
  bool trained_ = false;
};

}  // namespace harmony

#endif  // HARMONY_INDEX_PQ_H_
