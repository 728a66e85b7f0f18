#include "core/engine.h"

#include <algorithm>
#include <vector>

#include "core/cost_model.h"
#include "core/router.h"
#include "util/logging.h"
#include "util/timer.h"

namespace harmony {

namespace {

/// Uniform prior used at build time, before any queries are seen: every
/// list equally likely to be probed.
WorkloadProfile UniformPrior(const IvfIndex& index, size_t k, size_t nprobe) {
  WorkloadProfile profile;
  profile.num_queries = 1000;
  profile.dim = index.dim();
  profile.k = k;
  profile.nprobe = nprobe;
  profile.list_sizes = index.ListSizes();
  const double per_list =
      static_cast<double>(profile.num_queries) *
      static_cast<double>(nprobe) / static_cast<double>(index.nlist());
  profile.list_probe_count.assign(index.nlist(), per_list);
  return profile;
}

}  // namespace

HarmonyEngine::HarmonyEngine(HarmonyOptions options)
    : options_(options), index_(options.ivf) {
  effective_machines_ =
      options_.mode == Mode::kSingleNode ? 1 : std::max<size_t>(1, options_.num_machines);
  if (options_.mode == Mode::kSingleNode) {
    // Client and the single worker are the same physical node: no network.
    options_.net.latency_seconds = 0.0;
    options_.net.bandwidth_bytes_per_sec = 1e18;
  }
  if (!options_.enable_pipeline) {
    // Ablation: without the pipeline there is no compute/communication
    // overlap — sends block the sender (Figure 2(b) "B" mode).
    options_.net.mode = CommMode::kBlocking;
  }
}

Status HarmonyEngine::Build(const DatasetView& base) {
  if (built_) return Status::FailedPrecondition("engine already built");
  HARMONY_RETURN_NOT_OK(index_.Train(base));
  HARMONY_RETURN_NOT_OK(index_.Add(base));
  return FinishBuild();
}

Status HarmonyEngine::BuildFromIndex(IvfIndex index) {
  if (built_) return Status::FailedPrecondition("engine already built");
  if (!index.trained() || index.num_vectors() == 0) {
    return Status::InvalidArgument("index must be trained and populated");
  }
  if (index.metric() != options_.ivf.metric) {
    return Status::InvalidArgument("index metric does not match engine");
  }
  index_ = std::move(index);
  return FinishBuild();
}

Status HarmonyEngine::FinishBuild() {
  build_stats_.train_seconds = index_.build_stats().train_seconds;
  build_stats_.add_seconds = index_.build_stats().add_seconds;

  StopWatch preassign;
  CostModelParams cost;
  cost.alpha = options_.alpha;
  cost.pruning_survival = options_.pruning_survival;
  cost.pruning_enabled = options_.enable_pruning;
  cost.pipeline_batch = options_.pipeline_batch;
  cost.replication = options_.replication_factor;
  cost.pq_subspaces = options_.use_pq_streams ? options_.pq_subspaces : 0;
  cost.net = options_.net;
  cost.machine = options_.machine;
  QueryPlanner planner(options_.mode, cost);
  const WorkloadProfile prior = UniformPrior(index_, /*k=*/10, /*nprobe=*/8);
  HARMONY_ASSIGN_OR_RETURN(
      last_choice_,
      planner.Plan(index_, effective_machines_, prior,
                   options_.enable_balanced_load, options_.force_b_vec,
                   options_.force_b_dim));
  HARMONY_RETURN_NOT_OK(Repartition(last_choice_.plan));
  prewarm_ = PrewarmCache::Build(index_, options_.prewarm_per_list);
  build_stats_.preassign_seconds = preassign.ElapsedSeconds();
  next_id_ = index_.num_vectors();
  update_log_ = UpdateLog(index_.dim());
  delta_.assign(plan_.num_vec_shards, DeltaShard());
  built_ = true;
  return Status::OK();
}

Status HarmonyEngine::TrainQuantizer(const PartitionPlan& plan) {
  quantizer_.Reset();
  if (!options_.use_pq_streams) return Status::OK();
  // Deterministic training sample: stored vectors walked in list order,
  // strided down to a cap so per-band k-means stays cheap on large bases.
  // The codebooks quantize coarse-centroid residuals (IVFADC), so the
  // sample is each row minus its list's centroid — the residual energy is
  // what the codes have to cover, which is far less than the raw rows'.
  constexpr size_t kMaxTrainRows = 65536;
  const size_t total = index_.num_vectors();
  if (total == 0) return Status::InvalidArgument("no vectors to train PQ on");
  const size_t stride = (total + kMaxTrainRows - 1) / kMaxTrainRows;
  const size_t dim = index_.dim();
  Dataset train(std::vector<float>(), dim);
  std::vector<float> residual(dim);
  size_t seen = 0;
  for (size_t l = 0; l < index_.nlist(); ++l) {
    const DatasetView vecs = index_.ListVectors(l);
    const float* centroid = index_.centroids().Row(l);
    for (size_t i = 0; i < vecs.size(); ++i, ++seen) {
      if (seen % stride != 0) continue;
      const float* row = vecs.Row(i);
      for (size_t k = 0; k < dim; ++k) residual[k] = row[k] - centroid[k];
      HARMONY_RETURN_NOT_OK(train.Append(residual.data(), dim));
    }
  }
  GridPqParams params;
  params.num_subspaces = options_.pq_subspaces;
  params.bits = options_.pq_bits;
  params.train_iters = options_.pq_train_iters;
  // The IVF training threads also train the subspace k-means; the
  // codebooks are bit-identical for every thread count.
  params.num_threads = options_.ivf.train_threads;
  return quantizer_.Train(train.View(), plan.dim_ranges, params);
}

Status HarmonyEngine::Repartition(const PartitionPlan& plan) {
  const bool with_norms =
      plan.num_dim_blocks > 1 && options_.ivf.metric != Metric::kL2;
  // The quantizer's per-block subspaces follow the plan's dim ranges, so a
  // reshaped grid retrains it before the stores encode their code streams.
  HARMONY_RETURN_NOT_OK(TrainQuantizer(plan));
  HARMONY_ASSIGN_OR_RETURN(
      stores_, BuildWorkerStores(index_, plan, with_norms,
                                 quantizer_.trained() ? &quantizer_ : nullptr));
  stores_with_norms_ = with_norms;
  // Pending delta rows ride out a repartition: list→shard ownership and dim
  // ranges may both have moved, so re-bucket them from their retained
  // full-dim originals, and force the next batch to fold a fresh epoch on
  // top of the rebuilt frozen stores.
  if (pending_delta_rows() > 0) {
    RedistributeDelta(plan);
    epoch_dirty_ = true;
  } else {
    delta_.assign(plan.num_vec_shards, DeltaShard());
  }
  epoch_stores_.reset();
  plan_ = plan;
  return Status::OK();
}

size_t HarmonyEngine::pending_delta_rows() const {
  size_t rows = 0;
  for (const DeltaShard& shard : delta_) rows += shard.rows();
  return rows;
}

void HarmonyEngine::RedistributeDelta(const PartitionPlan& plan) {
  std::vector<DeltaShard> old = std::move(delta_);
  delta_.assign(plan.num_vec_shards, DeltaShard());
  for (const DeltaShard& shard : old) {
    for (size_t r = 0; r < shard.rows(); ++r) {
      const float* row = shard.full_rows.data() + r * shard.dim;
      const int32_t list = shard.lists[r];
      const size_t dest =
          static_cast<size_t>(plan.list_to_shard[static_cast<size_t>(list)]);
      delta_[dest].Append(row, shard.dim, shard.ids[r], list);
    }
  }
}

Status HarmonyEngine::InsertOne(const float* row, int64_t gid) {
  const int32_t list = NearestCentroid(index_.centroids().View(), row);
  const size_t shard =
      static_cast<size_t>(plan_.list_to_shard[static_cast<size_t>(list)]);
  update_log_.AppendInsert(gid, row, index_.dim());
  delta_[shard].Append(row, index_.dim(), gid, list);
  epoch_dirty_ = true;
  return Status::OK();
}

Status HarmonyEngine::InsertVectors(const DatasetView& vectors) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  if (vectors.empty()) return Status::OK();
  if (vectors.dim() != index_.dim()) {
    return Status::InvalidArgument("dimension mismatch on InsertVectors");
  }
  for (size_t i = 0; i < vectors.size(); ++i) {
    const int64_t gid = static_cast<int64_t>(next_id_++);
    HARMONY_RETURN_NOT_OK(InsertOne(vectors.Row(i), gid));
  }
  return Status::OK();
}

Status HarmonyEngine::DeleteVectors(const std::vector<int64_t>& ids) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  for (const int64_t id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= next_id_) {
      return Status::InvalidArgument("delete id out of range: " +
                                     std::to_string(id));
    }
    update_log_.AppendDelete(id);
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= tombstones_.size()) tombstones_.resize(word + 1, 0);
    const uint64_t bit = uint64_t{1} << (static_cast<size_t>(id) & 63);
    if ((tombstones_[word] & bit) == 0) {
      tombstones_[word] |= bit;
      ++tombstone_count_;
    }
  }
  return Status::OK();
}

Status HarmonyEngine::RefreshEpoch() {
  if (!epoch_dirty_) return Status::OK();
  epoch_dirty_ = false;
  if (pending_delta_rows() == 0) {
    epoch_stores_.reset();
    return Status::OK();
  }
  // Copy-on-write fold: clone the frozen stores and append every delta
  // row's slices (norm columns and residual PQ codes included, using the
  // build-pinned codebooks). The clone is what in-flight batches keep
  // pinned while a later merge swaps generations underneath.
  auto epoch = std::make_shared<std::vector<WorkerStore>>(stores_);
  const size_t dim = index_.dim();
  for (size_t s = 0; s < delta_.size(); ++s) {
    const DeltaShard& shard = delta_[s];
    for (size_t r = 0; r < shard.rows(); ++r) {
      const float* row = shard.full_rows.data() + r * dim;
      const int32_t list = shard.lists[r];
      for (size_t d = 0; d < plan_.num_dim_blocks; ++d) {
        for (size_t rep = 0; rep < plan_.replication; ++rep) {
          const size_t machine =
              static_cast<size_t>(plan_.ReplicaOf(s, d, rep));
          HARMONY_RETURN_NOT_OK((*epoch)[machine].AppendVector(
              s, d, list, plan_.dim_ranges[d], row, dim, shard.ids[r],
              stores_with_norms_,
              quantizer_.trained() ? &quantizer_ : nullptr,
              quantizer_.trained()
                  ? index_.centroids().Row(static_cast<size_t>(list))
                  : nullptr));
        }
      }
    }
  }
  epoch_stores_ = std::move(epoch);
  return Status::OK();
}

Result<StoreSnapshot> HarmonyEngine::AcquireSnapshot() {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  HARMONY_RETURN_NOT_OK(RefreshEpoch());
  StoreSnapshot snap;
  if (epoch_stores_ != nullptr) {
    snap.stores = epoch_stores_;
  } else {
    // No pending delta: alias the frozen stores without owning them — the
    // updates-off path stays byte-identical (same payload, same addresses).
    snap.stores = std::shared_ptr<const std::vector<WorkerStore>>(
        std::shared_ptr<const std::vector<WorkerStore>>(), &stores_);
  }
  if (tombstone_count_ > 0) {
    snap.tombstones = tombstones_.data();
    snap.tombstone_words = tombstones_.size();
  }
  snap.generation = generation_;
  return snap;
}

Status HarmonyEngine::MergeUpdates() {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  if (pending_delta_rows() == 0 && tombstone_count_ == 0) return Status::OK();
  // Fold pending inserts into the IVF index first, then remove tombstoned
  // rows — this order makes delete-of-a-pending-insert land correctly —
  // then rebuild the grid (and PQ codes) on the current plan at a rank
  // barrier. Ids survive untouched, so the id space goes sparse after
  // deletes and is never reused.
  const size_t dim = index_.dim();
  for (const DeltaShard& shard : delta_) {
    for (size_t r = 0; r < shard.rows(); ++r) {
      HARMONY_RETURN_NOT_OK(index_.AddAssigned(
          shard.lists[r], shard.ids[r], shard.full_rows.data() + r * dim,
          dim));
    }
  }
  if (tombstone_count_ > 0) {
    index_.RemoveIds(tombstones_.data(), tombstones_.size());
  }
  delta_.assign(plan_.num_vec_shards, DeltaShard());
  tombstones_.clear();
  tombstone_count_ = 0;
  epoch_dirty_ = false;
  HARMONY_RETURN_NOT_OK(Repartition(plan_));
  prewarm_ = PrewarmCache::Build(index_, options_.prewarm_per_list);
  ++generation_;
  update_log_.MarkMerged();
  update_log_.Compact();
  return Status::OK();
}

Status HarmonyEngine::ReplayUpdates(const UpdateLog& log) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  if (log.dim() != index_.dim()) {
    return Status::InvalidArgument("update log dimension mismatch");
  }
  for (const UpdateRecord& rec : log.records()) {
    switch (rec.op) {
      case UpdateOp::kInsert: {
        if (rec.id != static_cast<int64_t>(next_id_)) {
          return Status::FailedPrecondition(
              "replayed insert id " + std::to_string(rec.id) +
              " does not continue this engine's id space at " +
              std::to_string(next_id_));
        }
        ++next_id_;
        HARMONY_RETURN_NOT_OK(InsertOne(rec.vec.data(), rec.id));
        break;
      }
      case UpdateOp::kDelete:
        HARMONY_RETURN_NOT_OK(DeleteVectors({rec.id}));
        break;
    }
  }
  return Status::OK();
}

ExecOptions HarmonyEngine::MakeExecOptions(
    size_t k, size_t nprobe, std::optional<int32_t> allowed_label) const {
  // The single engine->execution conversion point: the shared ExecTuning
  // base carries over wholesale (both structs inherit it), leaving only the
  // fields that genuinely differ between the two layers.
  ExecOptions exec;
  static_cast<ExecTuning&>(exec) = static_cast<const ExecTuning&>(options_);
  exec.metric = options_.ivf.metric;
  exec.k = k;
  exec.nprobe = nprobe;
  exec.dynamic_dim_order =
      options_.enable_pipeline && options_.enable_balanced_load;
  exec.pq = quantizer_.trained() ? &quantizer_ : nullptr;
  // Mutable-store state rides along with every batch: a null tombstone
  // pointer when no deletes are pending keeps the updates-off path
  // byte-identical to the pinned goldens.
  if (tombstone_count_ > 0) {
    exec.tombstones = tombstones_.data();
    exec.tombstone_words = tombstones_.size();
  }
  exec.store_generation = generation_;
  if (allowed_label.has_value()) {
    exec.labels = &labels_;
    exec.allowed_label = *allowed_label;
  }
  return exec;
}

Status HarmonyEngine::CheckFilter(std::optional<int32_t> allowed_label) const {
  if (!allowed_label.has_value()) return Status::OK();
  if (labels_.empty()) {
    return Status::FailedPrecondition("SetLabels() must run before filtering");
  }
  if (labels_.size() != IdSpan()) {
    return Status::FailedPrecondition(
        "labels are stale: call SetLabels() again after adding vectors");
  }
  return Status::OK();
}

Status HarmonyEngine::SetLabels(std::vector<int32_t> labels) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  // One label per assigned global id. IdSpan (not num_vectors) is the
  // authority once updates run: deltas widen the id space before they reach
  // the index, and merged deletes leave it sparse.
  if (labels.size() != IdSpan()) {
    return Status::InvalidArgument(
        "need exactly one label per assigned global id (" +
        std::to_string(IdSpan()) + "), got " + std::to_string(labels.size()));
  }
  labels_ = std::move(labels);
  return Status::OK();
}

Result<BatchResult> HarmonyEngine::SearchBatch(
    const DatasetView& queries, size_t k, size_t nprobe,
    std::optional<int32_t> allowed_label) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  HARMONY_RETURN_NOT_OK(CheckFilter(allowed_label));
  if (queries.empty()) return Status::InvalidArgument("empty query batch");
  if (k == 0 || nprobe == 0) {
    return Status::InvalidArgument("k and nprobe must be > 0");
  }

  StopWatch plan_watch;
  // Profile the batch and let the cost model reconsider the grid shape
  // (Mode::kHarmony only; other modes are pinned and re-planning is a
  // no-op returning the same shape).
  CostModelParams cost;
  cost.alpha = options_.alpha;
  cost.pruning_survival = options_.pruning_survival;
  cost.pruning_enabled = options_.enable_pruning;
  cost.pipeline_batch = options_.pipeline_batch;
  cost.replication = options_.replication_factor;
  cost.pq_subspaces = options_.use_pq_streams ? options_.pq_subspaces : 0;
  cost.net = options_.net;
  cost.machine = options_.machine;
  QueryPlanner planner(options_.mode, cost);
  const WorkloadProfile profile =
      ProfileWorkload(index_, queries, k, nprobe, options_.profile_sample);
  HARMONY_ASSIGN_OR_RETURN(
      PlanChoice choice,
      planner.Plan(index_, effective_machines_, profile,
                   options_.enable_balanced_load, options_.force_b_vec,
                   options_.force_b_dim));
  if (choice.plan.num_vec_shards != plan_.num_vec_shards ||
      choice.plan.num_dim_blocks != plan_.num_dim_blocks ||
      choice.plan.list_to_shard != plan_.list_to_shard) {
    HARMONY_RETURN_NOT_OK(Repartition(choice.plan));
    ++repartition_count_;
  }
  last_choice_ = std::move(choice);
  return ExecuteOnCurrentPlan(queries, k, nprobe, allowed_label,
                              plan_watch.ElapsedSeconds());
}

Result<BatchResult> HarmonyEngine::SearchBatchPinned(const DatasetView& queries,
                                                     size_t k, size_t nprobe) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  if (queries.empty()) return Status::InvalidArgument("empty query batch");
  if (k == 0 || nprobe == 0) {
    return Status::InvalidArgument("k and nprobe must be > 0");
  }
  return ExecuteOnCurrentPlan(queries, k, nprobe, std::nullopt,
                              /*plan_seconds=*/0.0);
}

Result<BatchResult> HarmonyEngine::ExecuteOnCurrentPlan(
    const DatasetView& queries, size_t k, size_t nprobe,
    std::optional<int32_t> allowed_label, double plan_seconds) {
  // Acquired once per batch: the whole run executes one generation's stores
  // no matter when a merge lands (the shared_ptr pins the epoch payload).
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, AcquireSnapshot());
  SimCluster cluster(effective_machines_, options_.net, options_.machine);
  const ExecOptions exec = MakeExecOptions(k, nprobe, allowed_label);
  const BatchRouting routing =
      RouteBatch(index_, plan_, queries, nprobe,
                 exec.shared_scans ? exec.query_group_size : 1);
  if (exec.faults.enabled()) cluster.SetFaultPlan(exec.faults);
  HARMONY_ASSIGN_OR_RETURN(
      PipelineOutput output,
      ExecuteSimulated(index_, plan_, *snap.stores, prewarm_, routing, queries,
                       exec, &cluster));

  BatchResult result;
  result.results = std::move(output.results);
  result.degraded = std::move(output.degraded);
  BatchStats& stats = result.stats;
  stats.faults = output.faults;
  stats.num_queries = queries.size();
  stats.makespan_seconds = cluster.Makespan();
  stats.qps = stats.makespan_seconds > 0.0
                  ? static_cast<double>(queries.size()) / stats.makespan_seconds
                  : 0.0;
  stats.plan_seconds = plan_seconds;
  stats.breakdown = cluster.Breakdown();
  stats.prune = output.prune;
  stats.memory = IndexMemory();
  stats.memory.peak_query_bytes =
      stats.memory.index_bytes_max_node + output.peak_intermediate_bytes;
  stats.node_compute_seconds.reserve(effective_machines_);
  for (size_t m = 0; m < effective_machines_; ++m) {
    stats.node_compute_seconds.push_back(cluster.worker(m).compute_seconds());
    stats.node_comm_seconds.push_back(cluster.worker(m).comm_seconds());
    stats.node_idle_seconds.push_back(cluster.worker(m).idle_seconds());
  }
  stats.client_clock_seconds = cluster.client().clock();
  stats.client_compute_seconds = cluster.client().compute_seconds();
  result.query_seconds = output.query_completion_seconds;
  std::vector<double> latencies = std::move(output.query_completion_seconds);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(latencies.size() - 1));
      return latencies[idx];
    };
    stats.latency_p50_seconds = pct(0.50);
    stats.latency_p95_seconds = pct(0.95);
    stats.latency_p99_seconds = pct(0.99);
    stats.latency_max_seconds = latencies.back();
  }
  return result;
}

Result<ThreadedOutput> HarmonyEngine::SearchBatchThreaded(
    const DatasetView& queries, size_t k, size_t nprobe,
    std::optional<int32_t> allowed_label) {
  if (!built_) return Status::FailedPrecondition("Build() must run first");
  HARMONY_RETURN_NOT_OK(CheckFilter(allowed_label));
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, AcquireSnapshot());
  const ExecOptions exec = MakeExecOptions(k, nprobe, allowed_label);
  const BatchRouting routing =
      RouteBatch(index_, plan_, queries, nprobe,
                 exec.shared_scans ? exec.query_group_size : 1);
  return ExecuteThreaded(index_, plan_, *snap.stores, prewarm_, routing,
                         queries, exec);
}

MemoryStats HarmonyEngine::IndexMemory() const {
  MemoryStats mem;
  for (const WorkerStore& store : stores_) {
    const uint64_t bytes = store.SizeBytes();
    mem.index_bytes_total += bytes;
    mem.index_bytes_max_node = std::max(mem.index_bytes_max_node, bytes);
    mem.index_code_bytes += store.CodeBytes();
  }
  mem.client_bytes = index_.centroids().SizeBytes() + prewarm_.SizeBytes() +
                     quantizer_.SizeBytes();
  for (const DeltaShard& shard : delta_) {
    mem.delta_bytes_total += shard.SizeBytes();
  }
  mem.tombstone_bytes = tombstones_.size() * sizeof(uint64_t);
  return mem;
}

}  // namespace harmony
