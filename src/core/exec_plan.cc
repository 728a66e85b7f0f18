#include "core/exec_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "index/distance.h"
#include "index/pq.h"

namespace harmony {

Result<ExecContext> MakeExecContext(const IvfIndex& index,
                                    const PartitionPlan& plan,
                                    const std::vector<WorkerStore>& stores,
                                    const PrewarmCache& prewarm,
                                    const BatchRouting& routing,
                                    const DatasetView& queries,
                                    const ExecOptions& opts) {
  if (queries.dim() != index.dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (plan.num_dim_blocks > 64) {
    return Status::NotSupported("more than 64 dimension blocks");
  }
  if (opts.faults.drop_prob < 0.0 || opts.faults.drop_prob > 1.0) {
    return Status::InvalidArgument(
        "fault plan drop_prob must lie in [0, 1]");
  }
  for (const double mult : opts.faults.delay_multiplier) {
    if (mult < 0.0) {
      return Status::InvalidArgument(
          "fault plan delay multipliers must be >= 0");
    }
  }
  if (opts.replication_factor == 0) {
    return Status::InvalidArgument("replication factor must be >= 1");
  }
  if (opts.replication_factor > plan.num_machines) {
    return Status::InvalidArgument(
        "replication factor exceeds machine count");
  }
  if (opts.hedge_after < 0.0) {
    return Status::InvalidArgument("hedge_after must be >= 0");
  }
  if (plan.replication != opts.replication_factor) {
    return Status::InvalidArgument(
        "partition plan was not built with the requested replication factor");
  }
  if (opts.kernel_tier != KernelTier::kAuto &&
      !KernelTierAvailable(opts.kernel_tier)) {
    return Status::InvalidArgument(
        std::string("requested kernel tier is not available on this CPU: ") +
        KernelTierName(opts.kernel_tier));
  }
  if (opts.use_pq_streams) {
    if (opts.pq == nullptr || !opts.pq->trained()) {
      return Status::InvalidArgument(
          "use_pq_streams requires a trained grid quantizer");
    }
    if (opts.pq->num_blocks() != plan.num_dim_blocks ||
        opts.pq->dim() != index.dim()) {
      return Status::InvalidArgument(
          "grid quantizer does not match the partition plan");
    }
  }
  ExecContext ctx;
  ctx.index = &index;
  ctx.plan = &plan;
  ctx.stores = &stores;
  ctx.prewarm = &prewarm;
  ctx.routing = &routing;
  ctx.queries = queries;
  ctx.opts = &opts;
  ctx.b_dim = plan.num_dim_blocks;
  ctx.dim = index.dim();
  ctx.num_queries = queries.size();
  ctx.use_ip = opts.metric != Metric::kL2;
  ctx.use_norms = ctx.use_ip && ctx.b_dim > 1;
  ctx.max_retries = static_cast<uint32_t>(opts.max_retries);
  ctx.tombstones = opts.tombstones;
  ctx.tombstone_words = opts.tombstone_words;
  ctx.store_generation = opts.store_generation;
  ctx.replication = plan.replication;
  ctx.routed = ctx.replication > 1;  // AttachFaults widens this when faulty.
  // Record the batch's kernel table once, so simulated and threaded runs
  // of one batch replay the identical kernels.
  ctx.kernels = &ScanKernelsFor(opts.kernel_tier);
  if (opts.use_pq_streams) {
    ctx.use_pq = true;
    // The ADC tables are built by the stages that scan them
    // (BuildStageAdcTables); the context keeps only the simulator's bill
    // for them and the IP bound's per-block query norms.
    size_t max_probes = 0;  // probe slots per query, max over the batch
    for (size_t qi = 0; qi < ctx.num_queries; ++qi) {
      max_probes = std::max(max_probes, routing.probe_lists[qi].size());
    }
    for (size_t d = 0; d < ctx.b_dim; ++d) {
      const ProductQuantizer& q = opts.pq->block(d);
      // Per probed list: the residual subtraction plus the table fill.
      ctx.lut_build_ops +=
          static_cast<uint64_t>(max_probes) *
          (static_cast<uint64_t>(q.codewords()) * plan.dim_ranges[d].width() +
           plan.dim_ranges[d].width());
    }
    if (ctx.use_ip) {
      ctx.pq_q_norm.resize(ctx.num_queries * ctx.b_dim);
      for (size_t qi = 0; qi < ctx.num_queries; ++qi) {
        const float* qrow = queries.Row(qi);
        for (size_t d = 0; d < ctx.b_dim; ++d) {
          const DimRange r = plan.dim_ranges[d];
          ctx.pq_q_norm[qi * ctx.b_dim + d] = std::sqrt(
              PartialIp(qrow + r.begin, qrow + r.begin, r.width()));
        }
      }
    }
  }
  return ctx;
}

void StageReplicaOrder(const ExecContext& ctx, const QueryChain& chain,
                       size_t block, std::vector<uint8_t>* order) {
  const size_t reps = ctx.replication;
  order->resize(reps);
  std::iota(order->begin(), order->end(), static_cast<uint8_t>(0));
  if (reps <= 1) return;
  const uint64_t key =
      ReplicaRouteKey(chain.probe_rank, chain.shard, block);
  const size_t rot = static_cast<size_t>(key % reps);
  std::rotate(order->begin(), order->begin() + rot, order->end());
  // Health demotion. Only folded / static signals may steer routing: the
  // health tracker's quarantine flags fold at rank barriers and the fault
  // plan's start-crashes are compile-time truth, so both engines sort the
  // same order no matter how their chains interleave within a rank.
  const PartitionPlan& plan = *ctx.plan;
  const size_t shard = static_cast<size_t>(chain.shard);
  auto health_class = [&](uint8_t r) -> int {
    const size_t machine =
        static_cast<size_t>(plan.ReplicaOf(shard, block, r));
    if (ctx.faulty && ctx.faults->CrashedFromStart(machine)) return 2;
    if (ctx.health != nullptr && ctx.health->Quarantined(machine)) return 1;
    return 0;
  };
  // Stable insertion sort by health class: R is tiny, and unlike
  // std::stable_sort it needs no temporary buffer.
  std::vector<uint8_t>& o = *order;
  for (size_t i = 1; i < reps; ++i) {
    const uint8_t r = o[i];
    const int cls = health_class(r);
    size_t j = i;
    for (; j > 0 && health_class(o[j - 1]) > cls; --j) o[j] = o[j - 1];
    o[j] = r;
  }
}

size_t StagePrimaryReplica(const ExecContext& ctx, const QueryChain& chain,
                           size_t block) {
  if (ctx.replication <= 1) return 0;
  std::vector<uint8_t> order;
  StageReplicaOrder(ctx, chain, block, &order);
  if (ctx.faulty) {
    const PartitionPlan& plan = *ctx.plan;
    const size_t shard = static_cast<size_t>(chain.shard);
    for (const uint8_t r : order) {
      if (!ctx.faults->CrashedFromStart(
              static_cast<size_t>(plan.ReplicaOf(shard, block, r)))) {
        return r;
      }
    }
  }
  return order.front();
}

void BuildChainSliceTable(const ExecContext& ctx, const QueryChain& chain,
                          ChainCandidates* cand) {
  const PartitionPlan& plan = *ctx.plan;
  const size_t shard = static_cast<size_t>(chain.shard);
  const size_t num_lists = chain.lists.size();
  cand->slices.assign(ctx.b_dim * num_lists, nullptr);
  for (size_t d = 0; d < ctx.b_dim; ++d) {
    const size_t machine = static_cast<size_t>(plan.MachineOf(shard, d));
    for (size_t li = 0; li < num_lists; ++li) {
      cand->slices[d * num_lists + li] =
          (*ctx.stores)[machine].FindListSlice(shard, d, chain.lists[li]);
    }
  }
}

std::shared_ptr<const StageAdcTables> BuildStageAdcTables(
    const ExecContext& ctx, const QueryChain& chain,
    const ChainCandidates& cand, size_t d) {
  const ProductQuantizer& q = ctx.opts->pq->block(d);
  const DimRange r = ctx.plan->dim_ranges[d];
  const size_t ksub = q.codewords();
  const size_t stride = q.num_subspaces() * ksub;
  const size_t num_lists = chain.lists.size();
  const ListSlice* const* slices = cand.slices.data() + d * num_lists;
  const float* qband =
      ctx.queries.Row(static_cast<size_t>(chain.query)) + r.begin;
  auto out = std::make_shared<StageAdcTables>();
  out->values.resize(num_lists * stride);
  out->tables.assign(num_lists, nullptr);
  // IP tables differ across lists only by the folded constant, so the
  // query's table is scored once and copied per list.
  std::vector<float> scratch(ctx.use_ip ? stride : r.width());
  if (ctx.use_ip) q.ComputeLookupTableIp(qband, scratch.data());
  for (size_t li = 0; li < num_lists; ++li) {
    if (slices[li] == nullptr) continue;
    const float* cband =
        ctx.index->centroids().Row(static_cast<size_t>(chain.lists[li])) +
        r.begin;
    float* table = out->values.data() + li * stride;
    if (ctx.use_ip) {
      const float qc = PartialIp(qband, cband, r.width());
      for (size_t c = 0; c < ksub; ++c) table[c] = scratch[c] + qc;
      std::copy(scratch.begin() + ksub, scratch.end(), table + ksub);
    } else {
      for (size_t k = 0; k < r.width(); ++k) scratch[k] = qband[k] - cband[k];
      q.ComputeLookupTable(scratch.data(), table);
    }
    out->tables[li] = table;
  }
  return out;
}

namespace {

/// Rows of the chain's block-0 slices: the candidate count before the
/// prewarm and label filters drop any.
size_t ChainSliceRows(const QueryChain& chain, const ChainCandidates& cand) {
  size_t rows = 0;
  for (size_t li = 0; li < chain.lists.size(); ++li) {
    const ListSlice* ls = cand.slices[li];  // block 0 slices
    if (ls != nullptr) rows += ls->slice.num_rows();
  }
  return rows;
}

}  // namespace

void ReserveChainCandidateArrays(const ExecContext& ctx,
                                 const QueryChain& chain,
                                 ChainCandidates* cand) {
  const size_t rows = ChainSliceRows(chain, *cand);
  cand->id.reserve(rows);
  cand->list.reserve(rows);
  cand->row.reserve(rows);
  cand->partial.reserve(rows);
  if (ctx.use_norms) {
    cand->rem_p_sq.reserve(rows);
    cand->q_block_norm.reserve(ctx.b_dim);
  }
  if (ctx.use_pq) cand->bound.reserve(rows);
}

void BuildChainCandidateArrays(const ExecContext& ctx, const QueryChain& chain,
                               const std::unordered_set<int64_t>& prewarmed,
                               ChainCandidates* cand) {
  const ExecOptions& opts = *ctx.opts;
  // The prewarmed set holds at most nprobe x the per-list sample, so
  // bisecting a sorted copy costs each row less than a hash probe.
  std::vector<int64_t> skip(prewarmed.begin(), prewarmed.end());
  std::sort(skip.begin(), skip.end());
  // Sized once to the unfiltered row total, then trimmed to the rows kept.
  const size_t rows = ChainSliceRows(chain, *cand);
  cand->id.resize(rows);
  cand->list.resize(rows);
  cand->row.resize(rows);
  if (ctx.use_norms) cand->rem_p_sq.resize(rows);
  size_t n = 0;
  for (size_t li = 0; li < chain.lists.size(); ++li) {
    const ListSlice* ls = cand->slices[li];  // block 0 slices
    if (ls == nullptr) continue;
    for (size_t r = 0; r < ls->slice.num_rows(); ++r) {
      const int64_t gid = ls->slice.GlobalId(r);
      if (std::binary_search(skip.begin(), skip.end(), gid)) continue;
      // Rows inserted after the label column was set have no label and can
      // never match the predicate.
      if (opts.labels != nullptr &&
          (static_cast<size_t>(gid) >= opts.labels->size() ||
           (*opts.labels)[static_cast<size_t>(gid)] != opts.allowed_label)) {
        continue;
      }
      cand->id[n] = gid;
      cand->list[n] = static_cast<int32_t>(li);
      cand->row[n] = static_cast<int32_t>(r);
      if (ctx.use_norms) cand->rem_p_sq[n] = ls->total_norm_sq[r];
      ++n;
    }
  }
  cand->id.resize(n);
  cand->list.resize(n);
  cand->row.resize(n);
  cand->partial.assign(n, 0.0f);
  if (ctx.use_norms) cand->rem_p_sq.resize(n);
  if (ctx.use_pq) cand->bound.assign(n, 0.0f);
}

void ComputeQueryBlockNorms(const ExecContext& ctx, const QueryChain& chain,
                            ChainCandidates* cand) {
  const float* qrow = ctx.queries.Row(static_cast<size_t>(chain.query));
  cand->q_block_norm.resize(ctx.b_dim);
  for (size_t d = 0; d < ctx.b_dim; ++d) {
    const DimRange r = ctx.plan->dim_ranges[d];
    cand->q_block_norm[d] =
        PartialIp(qrow + r.begin, qrow + r.begin, r.width());
    cand->rem_q_total += cand->q_block_norm[d];
  }
}

void PrewarmQuery(const ExecContext& ctx, size_t q, TopKHeap* heap,
                  std::unordered_set<int64_t>* prewarmed,
                  const std::function<void(uint64_t)>& charge) {
  const ExecOptions& opts = *ctx.opts;
  if (charge) {
    charge(static_cast<uint64_t>(ctx.index->nlist()) *
           DistanceOpCost(ctx.dim));
    // The query's ADC lookup tables are built by the stages that scan
    // them; the work is billed here, once per query, where Algorithm 1's
    // per-query prep happens.
    if (ctx.use_pq) charge(ctx.lut_build_ops);
  }
  for (const int32_t list_id : (*ctx.routing).probe_lists[q]) {
    const auto& ids = ctx.prewarm->ListIds(static_cast<size_t>(list_id));
    if (ids.empty()) continue;
    const DatasetView vecs =
        ctx.prewarm->ListVectors(static_cast<size_t>(list_id));
    for (size_t i = 0; i < ids.size(); ++i) {
      if (opts.labels != nullptr &&
          (static_cast<size_t>(ids[i]) >= opts.labels->size() ||
           (*opts.labels)[static_cast<size_t>(ids[i])] != opts.allowed_label)) {
        continue;
      }
      // Tombstoned rows stay out of the heap (a dead row must never surface
      // in results) but are still recorded as prewarmed so chains skip them
      // identically in both engines; the scan charge below is unchanged —
      // the cached sample was scored either way.
      if (ctx.IsDeleted(ids[i])) {
        prewarmed->insert(ids[i]);
        continue;
      }
      const float d =
          Distance(opts.metric, ctx.queries.Row(q), vecs.Row(i), ctx.dim);
      heap->Push(ids[i], d);
      prewarmed->insert(ids[i]);
    }
    if (charge) {
      charge(static_cast<uint64_t>(ids.size()) * DistanceOpCost(ctx.dim));
    }
  }
}

}  // namespace harmony
