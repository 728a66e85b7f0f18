#include "core/worker.h"

#include <cmath>

#include "index/distance.h"
#include "index/pq.h"

namespace harmony {

namespace {

/// Encodes slice rows [begin_row, num_rows) of block `dim_block` into the
/// list's code stream. Codes quantize the row's *coarse-centroid residual*
/// (IVFADC): `c_slice` is the list centroid restricted to this block's
/// columns, and row p encodes r = p - c. The recorded slack
/// ||r - decode(code)|| equals ||p - (c + decode(code))||, so the ADC prune
/// bounds stay conservative unchanged (docs/quantization.md).
void EncodeCodeRows(const GridQuantizer& pq, size_t dim_block,
                    const float* c_slice, size_t begin_row, ListSlice* ls) {
  const ProductQuantizer& q = pq.block(dim_block);
  const size_t width = q.dim();
  const size_t rows = ls->slice.num_rows();
  ls->code_size = q.code_size();
  ls->codes.resize(rows * q.code_size());
  ls->code_err.resize(rows);
  std::vector<float> residual(width);
  std::vector<float> decoded(width);
  for (size_t r = begin_row; r < rows; ++r) {
    const float* row = ls->slice.Row(r);
    for (size_t k = 0; k < width; ++k) residual[k] = row[k] - c_slice[k];
    uint8_t* code = ls->codes.data() + r * q.code_size();
    q.Encode(residual.data(), code);
    q.Decode(code, decoded.data());
    ls->code_err[r] =
        std::sqrt(PartialL2Sq(residual.data(), decoded.data(), width));
  }
}

}  // namespace

void WorkerStore::IndexBlock(size_t index) {
  const Block& block = blocks_[index];
  block_index_.emplace(BlockKey(block.vec_shard, block.dim_block), index);
}

const ListSlice* WorkerStore::FindListSlice(size_t vec_shard,
                                            size_t dim_block,
                                            int32_t list_id) const {
  const auto bit = block_index_.find(BlockKey(vec_shard, dim_block));
  if (bit == block_index_.end()) return nullptr;
  const Block& block = blocks_[bit->second];
  const auto it = block.lists.find(list_id);
  return it == block.lists.end() ? nullptr : &it->second;
}

Status WorkerStore::AppendVector(size_t vec_shard, size_t dim_block,
                                 int32_t list_id, DimRange range,
                                 const float* full_vector, size_t full_dim,
                                 int64_t global_id, bool with_norms,
                                 const GridQuantizer* pq,
                                 const float* centroid) {
  const auto bit = block_index_.find(BlockKey(vec_shard, dim_block));
  if (bit == block_index_.end()) {
    return Status::NotFound("machine does not own the requested block");
  }
  Block& block = blocks_[bit->second];
  auto [it, inserted] = block.lists.try_emplace(list_id);
  ListSlice& ls = it->second;
  if (inserted) {
    // First row of a list that was empty at build time: seed a zero-row
    // matrix carrying the block's column range, then append into it.
    auto empty = DimSlicedMatrix::FromColumns(
        DatasetView(full_vector, 1, full_dim), range, {});
    if (!empty.ok()) return empty.status();
    ls.slice = std::move(empty).value();
  }
  ls.slice.AppendFullRow(full_vector, global_id);
  if (with_norms) {
    const float* slice_row = ls.slice.Row(ls.slice.num_rows() - 1);
    ls.block_norm_sq.push_back(PartialIp(slice_row, slice_row, range.width()));
    ls.total_norm_sq.push_back(PartialIp(full_vector, full_vector, full_dim));
  }
  if (pq != nullptr && pq->trained()) {
    if (centroid == nullptr) {
      return Status::InvalidArgument(
          "residual code streams need the list's coarse centroid");
    }
    EncodeCodeRows(*pq, dim_block, centroid + range.begin,
                   ls.slice.num_rows() - 1, &ls);
  }
  return Status::OK();
}

size_t WorkerStore::SizeBytes() const {
  size_t bytes = 0;
  for (const Block& block : blocks_) {
    for (const auto& [list_id, slice] : block.lists) {
      (void)list_id;
      bytes += slice.SizeBytes();
    }
  }
  return bytes;
}

size_t WorkerStore::CodeBytes() const {
  size_t bytes = 0;
  for (const Block& block : blocks_) {
    for (const auto& [list_id, slice] : block.lists) {
      (void)list_id;
      bytes += slice.CodeBytes();
    }
  }
  return bytes;
}

Result<std::vector<WorkerStore>> BuildWorkerStores(const IvfIndex& index,
                                                   const PartitionPlan& plan,
                                                   bool with_norms,
                                                   const GridQuantizer* pq) {
  if (!index.trained()) {
    return Status::FailedPrecondition("index must be trained");
  }
  if (pq != nullptr && pq->trained() &&
      pq->num_blocks() != plan.num_dim_blocks) {
    return Status::InvalidArgument(
        "grid quantizer block count does not match the partition plan");
  }
  std::vector<WorkerStore> stores(plan.num_machines);
  for (size_t m = 0; m < plan.num_machines; ++m) {
    stores[m].machine_id_ = static_cast<int>(m);
  }

  for (size_t v = 0; v < plan.num_vec_shards; ++v) {
    for (size_t d = 0; d < plan.num_dim_blocks; ++d) {
      // Materialize block (v, d) on every replica machine; replica 0 is the
      // MachineOf owner and the only copy on unreplicated plans.
      for (size_t rep = 0; rep < plan.replication; ++rep) {
        const size_t machine = static_cast<size_t>(plan.ReplicaOf(v, d, rep));
        WorkerStore::Block block;
        block.vec_shard = v;
        block.dim_block = d;
        block.range = plan.dim_ranges[d];
        for (const int32_t list_id : plan.shard_lists[v]) {
          const DatasetView vectors =
              index.ListVectors(static_cast<size_t>(list_id));
          if (vectors.empty()) continue;
          ListSlice ls;
          HARMONY_ASSIGN_OR_RETURN(
              ls.slice,
              DimSlicedMatrix::FromAllRows(
                  vectors, block.range,
                  index.ListIds(static_cast<size_t>(list_id))));
          if (with_norms) {
            ls.block_norm_sq.resize(ls.slice.num_rows());
            ls.total_norm_sq.resize(ls.slice.num_rows());
            for (size_t r = 0; r < ls.slice.num_rows(); ++r) {
              const float* row = ls.slice.Row(r);
              ls.block_norm_sq[r] = PartialIp(row, row, block.range.width());
              const float* full = vectors.Row(r);
              ls.total_norm_sq[r] = PartialIp(full, full, vectors.dim());
            }
          }
          if (pq != nullptr && pq->trained()) {
            EncodeCodeRows(
                *pq, d,
                index.centroids().Row(static_cast<size_t>(list_id)) +
                    block.range.begin,
                0, &ls);
          }
          block.lists.emplace(list_id, std::move(ls));
        }
        stores[machine].blocks_.push_back(std::move(block));
        stores[machine].IndexBlock(stores[machine].blocks_.size() - 1);
      }
    }
  }
  return stores;
}

void DeltaShard::Append(const float* row, size_t full_dim, int64_t id,
                        int32_t list) {
  dim = full_dim;
  full_rows.insert(full_rows.end(), row, row + full_dim);
  ids.push_back(id);
  lists.push_back(list);
}

size_t DeltaShard::SizeBytes() const {
  return full_rows.size() * sizeof(float) + ids.size() * sizeof(int64_t) +
         lists.size() * sizeof(int32_t);
}

}  // namespace harmony
