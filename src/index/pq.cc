#include "index/pq.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "index/distance.h"
#include "index/kmeans.h"
#include "index/scan_kernel.h"

namespace harmony {

Status ProductQuantizer::Train(const DatasetView& data) {
  if (trained()) return Status::FailedPrecondition("quantizer already trained");
  if (params_.num_subspaces == 0 || params_.bits == 0 || params_.bits > 8) {
    return Status::InvalidArgument("need 1..8 bits and >= 1 subspace");
  }
  if (data.dim() < params_.num_subspaces) {
    return Status::InvalidArgument("more subspaces than dimensions");
  }
  const size_t ksub = codewords();
  if (data.size() < ksub) {
    return Status::InvalidArgument(
        "need at least " + std::to_string(ksub) + " training vectors");
  }
  dim_ = data.dim();
  bands_ = EvenDimBlocks(dim_, params_.num_subspaces);
  codebooks_.resize(params_.num_subspaces);

  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    const DimRange band = bands_[m];
    // Materialize the band's columns and run k-means on them.
    Dataset sub(data.size(), band.width());
    for (size_t i = 0; i < data.size(); ++i) {
      const float* src = data.Row(i) + band.begin;
      std::copy(src, src + band.width(), sub.MutableRow(i));
    }
    KMeansParams km;
    km.num_clusters = ksub;
    km.max_iters = params_.train_iters;
    km.seed = params_.seed + m;
    km.use_kmeanspp = ksub <= 64;
    km.num_threads = params_.num_threads;
    HARMONY_ASSIGN_OR_RETURN(KMeansResult result, TrainKMeans(sub.View(), km));
    // k-means returns codewords row-major; store them dimension-major.
    const size_t width = band.width();
    std::vector<float>& book = codebooks_[m];
    book.resize(ksub * width);
    for (size_t c = 0; c < ksub; ++c) {
      const float* word = result.centroids.Row(c);
      for (size_t j = 0; j < width; ++j) book[j * ksub + c] = word[j];
    }
  }
  return Status::OK();
}

void ProductQuantizer::ScoreBand(size_t m, const float* sub, bool ip,
                                 float* out) const {
  const size_t width = bands_[m].width();
  const size_t ksub = codewords();
  const float* book = codebooks_[m].data();
  if (width < kPortableRowWidthCutover) {
    // Every tier's row kernel is the portable body here, so the
    // codeword-parallel kernel is bitwise the per-codeword call.
    if (ip) {
      portable::IpCodewords(sub, book, width, ksub, out);
    } else {
      portable::L2Codewords(sub, book, width, ksub, out);
    }
    return;
  }
  // Wide bands keep the dispatched row kernel: gather each codeword.
  const ScanKernelTable& kt = ScanKernels();
  std::vector<float> word(width);
  for (size_t c = 0; c < ksub; ++c) {
    for (size_t j = 0; j < width; ++j) word[j] = book[j * ksub + c];
    out[c] = ip ? kt.ip_row(sub, word.data(), width)
                : kt.l2_row(sub, word.data(), width);
  }
}

void ProductQuantizer::Encode(const float* vec, uint8_t* code) const {
  float dist[256];  // codewords() <= 2^8
  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    ScoreBand(m, vec + bands_[m].begin, /*ip=*/false, dist);
    size_t best = 0;
    float best_dist = std::numeric_limits<float>::max();
    for (size_t c = 0; c < codewords(); ++c) {
      if (dist[c] < best_dist) {
        best_dist = dist[c];
        best = c;
      }
    }
    code[m] = static_cast<uint8_t>(best);
  }
}

std::vector<uint8_t> ProductQuantizer::EncodeBatch(
    const DatasetView& data) const {
  std::vector<uint8_t> codes(data.size() * code_size());
  for (size_t i = 0; i < data.size(); ++i) {
    Encode(data.Row(i), codes.data() + i * code_size());
  }
  return codes;
}

void ProductQuantizer::Decode(const uint8_t* code, float* out) const {
  const size_t ksub = codewords();
  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    const DimRange band = bands_[m];
    // Codeword code[m] is column code[m] of the dimension-major book.
    const float* word = codebooks_[m].data() + code[m];
    for (size_t j = 0; j < band.width(); ++j) {
      out[band.begin + j] = word[j * ksub];
    }
  }
}

void ProductQuantizer::ComputeLookupTable(const float* query,
                                          float* table) const {
  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    ScoreBand(m, query + bands_[m].begin, /*ip=*/false,
              table + m * codewords());
  }
}

void ProductQuantizer::ComputeLookupTableIp(const float* query,
                                            float* table) const {
  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    ScoreBand(m, query + bands_[m].begin, /*ip=*/true,
              table + m * codewords());
  }
}

float ProductQuantizer::AdcDistance(const float* table,
                                    const uint8_t* code) const {
  const size_t ksub = codewords();
  float total = 0.0f;
  for (size_t m = 0; m < params_.num_subspaces; ++m) {
    total += table[m * ksub + code[m]];
  }
  return total;
}

size_t ProductQuantizer::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& book : codebooks_) bytes += book.size() * sizeof(float);
  return bytes;
}

Status GridQuantizer::Train(const DatasetView& data,
                            const std::vector<DimRange>& ranges,
                            const GridPqParams& params) {
  if (ranges.empty()) return Status::InvalidArgument("no dim ranges to train");
  if (params.num_subspaces == 0 || params.bits == 0 || params.bits > 8) {
    return Status::InvalidArgument("need 1..8 bits and >= 1 subspace");
  }
  if (data.size() < 2) {
    return Status::InvalidArgument("need at least 2 training vectors");
  }
  size_t total = 0;
  for (const DimRange& r : ranges) total += r.width();
  if (total != data.dim()) {
    return Status::InvalidArgument("dim ranges do not cover the data dim");
  }
  // Clamp the codeword budget to the corpus so small test datasets still
  // train; the clamp depends only on (n, bits), so every block — and every
  // engine — sees the same effective parameters.
  size_t bits = params.bits;
  while (bits > 1 && (size_t{1} << bits) > data.size()) --bits;

  blocks_.clear();
  params_ = params;
  dim_ = data.dim();
  ranges_ = ranges;
  blocks_.reserve(ranges.size());
  for (size_t d = 0; d < ranges.size(); ++d) {
    const DimRange range = ranges[d];
    // Apportion the subspace budget by block width, >= 1 and <= width.
    size_t m_b = (params.num_subspaces * range.width() + dim_ / 2) / dim_;
    m_b = std::min(std::max<size_t>(m_b, 1), range.width());
    Dataset sub(data.size(), range.width());
    for (size_t i = 0; i < data.size(); ++i) {
      const float* src = data.Row(i) + range.begin;
      std::copy(src, src + range.width(), sub.MutableRow(i));
    }
    PqParams pq;
    pq.num_subspaces = m_b;
    pq.bits = bits;
    pq.train_iters = params.train_iters;
    pq.seed = params.seed + 1315423911u * (d + 1);
    pq.num_threads = params.num_threads;
    ProductQuantizer q(pq);
    HARMONY_RETURN_NOT_OK(q.Train(sub.View()));
    blocks_.push_back(std::move(q));
  }
  return Status::OK();
}

size_t GridQuantizer::SizeBytes() const {
  size_t bytes = 0;
  for (const ProductQuantizer& q : blocks_) bytes += q.SizeBytes();
  return bytes;
}

Status IvfPqIndex::Train(const DatasetView& data) {
  if (trained_) return Status::FailedPrecondition("index already trained");
  if (data.size() < params_.nlist) {
    return Status::InvalidArgument("need at least nlist training points");
  }
  KMeansParams km;
  km.num_clusters = params_.nlist;
  km.max_iters = params_.train_iters;
  km.seed = params_.seed;
  km.use_kmeanspp = params_.nlist <= 256;
  HARMONY_ASSIGN_OR_RETURN(KMeansResult coarse, TrainKMeans(data, km));
  centroids_ = std::move(coarse.centroids);

  // PQ is trained on residuals (vector - coarse centroid), the IVFADC
  // formulation: residual energy is much smaller than raw energy, so the
  // codebooks spend their precision where it matters.
  Dataset residuals(data.size(), data.dim());
  const DatasetView cents = centroids_.View();
  for (size_t i = 0; i < data.size(); ++i) {
    const int32_t list = coarse.assignments[i];
    const float* center = cents.Row(static_cast<size_t>(list));
    const float* row = data.Row(i);
    float* out = residuals.MutableRow(i);
    for (size_t d = 0; d < data.dim(); ++d) out[d] = row[d] - center[d];
  }
  pq_ = ProductQuantizer(params_.pq);
  HARMONY_RETURN_NOT_OK(pq_.Train(residuals.View()));

  list_ids_.assign(params_.nlist, {});
  list_codes_.assign(params_.nlist, {});
  trained_ = true;
  return Status::OK();
}

Status IvfPqIndex::Add(const DatasetView& data) {
  if (!trained_) return Status::FailedPrecondition("Train() must run first");
  if (data.dim() != dim()) {
    return Status::InvalidArgument("dimension mismatch on Add");
  }
  const DatasetView cents = centroids_.View();
  std::vector<float> residual(dim());
  std::vector<uint8_t> code(pq_.code_size());
  for (size_t i = 0; i < data.size(); ++i) {
    const float* row = data.Row(i);
    const int32_t list = NearestCentroid(cents, row);
    const float* center = cents.Row(static_cast<size_t>(list));
    for (size_t d = 0; d < dim(); ++d) residual[d] = row[d] - center[d];
    pq_.Encode(residual.data(), code.data());
    auto& codes = list_codes_[static_cast<size_t>(list)];
    codes.insert(codes.end(), code.begin(), code.end());
    list_ids_[static_cast<size_t>(list)].push_back(
        static_cast<int64_t>(num_vectors_ + i));
  }
  num_vectors_ += data.size();
  return Status::OK();
}

Result<std::vector<Neighbor>> IvfPqIndex::Search(const float* query, size_t k,
                                                 size_t nprobe) const {
  if (!trained_) return Status::FailedPrecondition("index not trained");
  if (num_vectors_ == 0) return Status::FailedPrecondition("index empty");
  if (k == 0 || nprobe == 0) {
    return Status::InvalidArgument("k and nprobe must be > 0");
  }
  // Rank coarse cells by centroid distance.
  const size_t probes = std::min(nprobe, nlist());
  std::vector<std::pair<float, int32_t>> scored(nlist());
  for (size_t c = 0; c < nlist(); ++c) {
    scored[c] = {L2SqDistance(query, centroids_.Row(c), dim()),
                 static_cast<int32_t>(c)};
  }
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(probes),
                    scored.end());

  TopKHeap heap(k);
  std::vector<float> residual(dim());
  std::vector<float> table(pq_.num_subspaces() * pq_.codewords());
  for (size_t p = 0; p < probes; ++p) {
    const size_t list = static_cast<size_t>(scored[p].second);
    const auto& ids = list_ids_[list];
    if (ids.empty()) continue;
    // Per-cell lookup table on the query residual (IVFADC).
    const float* center = centroids_.Row(list);
    for (size_t d = 0; d < dim(); ++d) residual[d] = query[d] - center[d];
    pq_.ComputeLookupTable(residual.data(), table.data());
    const uint8_t* codes = list_codes_[list].data();
    // Batched ADC through the shared scan-kernel tier (same SIMD gather the
    // grid's quantized block streams use); bit-identical to AdcDistance.
    const ScanKernelTable& kt = ScanKernels();
    constexpr size_t kChunk = 256;
    float adc[kChunk];
    size_t done = 0;
    while (done < ids.size()) {
      const size_t n = std::min(kChunk, ids.size() - done);
      kt.adc_batch(table.data(), pq_.codewords(),
                   codes + done * pq_.code_size(), pq_.code_size(), n, adc);
      for (size_t i = 0; i < n; ++i) heap.Push(ids[done + i], adc[i]);
      done += n;
    }
  }
  return heap.SortedResults();
}

size_t IvfPqIndex::SizeBytes() const {
  size_t bytes = centroids_.SizeBytes() + pq_.SizeBytes();
  for (size_t l = 0; l < list_ids_.size(); ++l) {
    bytes += list_ids_[l].size() * sizeof(int64_t) + list_codes_[l].size();
  }
  return bytes;
}

}  // namespace harmony
