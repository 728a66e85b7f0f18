#ifndef HARMONY_CORE_ENGINE_H_
#define HARMONY_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/coordinator.h"
#include "core/exec_options.h"
#include "core/partition.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "core/pruning.h"
#include "core/stats.h"
#include "core/worker.h"
#include "index/ivf_index.h"
#include "index/pq.h"
#include "net/cluster.h"
#include "storage/dataset.h"
#include "storage/update_log.h"
#include "util/status.h"

namespace harmony {

/// \brief Engine configuration — the public surface of the paper's
/// `-NMachine`, `-Pruning_Configuration`, `-Indexing_Parameters`, `-α`,
/// and `-Mode` parameters (Section 5).
///
/// The execution knobs shared with the execution core (pruning, pipeline,
/// prewarm, batching, shared scans, intra-node parallelism, faults) live in
/// the ExecTuning base (core/exec_options.h) — one definition, forwarded to
/// ExecOptions wholesale by HarmonyEngine::MakeExecOptions. The fields
/// below exist only at the engine/planner layer.
struct HarmonyOptions : ExecTuning {
  Mode mode = Mode::kHarmony;
  size_t num_machines = 4;   // -NMachine
  IvfParams ivf;             // -Indexing_Parameters (nlist, metric, ...)
  NetworkParams net;
  MachineParams machine;
  double alpha = 4.0;        // -α: imbalance weight of the cost model
  /// Load-aware dynamic dimension ordering (with enable_pipeline, the
  /// Figure 9 "balanced load" ablation toggle).
  bool enable_balanced_load = true;
  /// Cost-model survival estimate for pruned stages (see CostModelParams).
  double pruning_survival = 0.5;
  /// Queries sampled when profiling a batch for the cost model (0 = all).
  size_t profile_sample = 64;
  /// Pins the grid shape (both must be > 0 and multiply to num_machines),
  /// bypassing the cost model's shape search. Used by ablation studies that
  /// must hold the partitioning fixed while toggling features.
  size_t force_b_vec = 0;
  size_t force_b_dim = 0;
  /// Grid-quantizer shape for PQ streams (docs/quantization.md); only read
  /// when the inherited ExecTuning::use_pq_streams is on. `pq_subspaces`
  /// is the subspace budget across the full dimension (apportioned to the
  /// plan's dim blocks by width), `pq_bits` the codeword width (1..8).
  size_t pq_subspaces = 16;
  size_t pq_bits = 8;
  size_t pq_train_iters = 25;
};

/// \brief The Harmony distributed ANNS engine (public API facade).
///
/// Lifecycle: construct -> Build(base) -> SearchBatch(...) any number of
/// times. Build trains the shared IVF clustering and pre-assigns grid
/// blocks to machines; SearchBatch profiles the batch, (re)plans the
/// partition grid when the cost model prefers a different shape, routes
/// queries, and executes the pruning pipeline on the simulated cluster.
class HarmonyEngine {
 public:
  explicit HarmonyEngine(HarmonyOptions options);

  const HarmonyOptions& options() const { return options_; }
  const IvfIndex& index() const { return index_; }
  bool built() const { return built_; }
  /// The currently-materialized partition plan (valid after Build()).
  const PartitionPlan& plan() const { return plan_; }
  const BuildStats& build_stats() const { return build_stats_; }
  /// Explanation of the last planning decision (candidate costs).
  const PlanChoice& last_plan_choice() const { return last_choice_; }
  /// Number of times SearchBatch re-materialized worker stores because the
  /// cost model switched grid shapes.
  size_t repartition_count() const { return repartition_count_; }

  /// Trains the clustering, adds the base vectors, and distributes grid
  /// blocks to machines using a uniform workload prior.
  Status Build(const DatasetView& base);

  /// Like Build() but adopts an already-trained-and-populated index instead
  /// of training one. This is how the evaluation gives every strategy the
  /// *same* clustering (Section 6.1) without retraining per engine; the
  /// index's IvfParams must match this engine's metric.
  Status BuildFromIndex(IvfIndex index);

  /// Epoch-versioned insert (docs/mutability.md): each vector is appended
  /// to the durable update log and buffered in its vector shard's
  /// DeltaShard; the next batch folds the delta into a fresh store epoch
  /// that both engines execute against. Frozen blocks and pinned goldens
  /// are untouched until MergeUpdates() rebuilds them.
  Status InsertVectors(const DatasetView& vectors);

  /// Epoch-versioned delete: logs a tombstone per id and sets its bit in
  /// the live bitset. Tombstoned rows keep being scanned (and billed) until
  /// the next merge, but are filtered at the rank barrier — they never
  /// survive exact rerank into a result heap. Deleting an id twice is a
  /// no-op; ids outside [0, IdSpan()) are rejected.
  Status DeleteVectors(const std::vector<int64_t>& ids);

  /// Rank-barrier merge: folds every pending insert into the IVF index,
  /// physically removes tombstoned rows, rebuilds the grid blocks (and
  /// re-trains PQ codes) on the current plan, refreshes the prewarm cache,
  /// bumps the store generation, and advances the update log's head marker.
  /// In-flight chains keep their pinned snapshot; new batches see the new
  /// generation.
  Status MergeUpdates();

  /// Recovery path: replays `log`'s retained records (ascending seq) into
  /// this freshly built engine. Insert records must carry the exact next
  /// global id — the log was written by a sequential assigner — so a replayed
  /// engine reproduces the original's id space bit-for-bit.
  Status ReplayUpdates(const UpdateLog& log);

  /// Acquires the store view the next batch would execute against: the
  /// current epoch's worker stores (delta folded in) plus the tombstone
  /// bitset and generation. Folds a dirty delta first, so acquiring is what
  /// materializes a new epoch.
  Result<StoreSnapshot> AcquireSnapshot();

  /// One past the largest global id ever assigned (dense after Build, then
  /// advanced by inserts; deletes never shrink it — ids are not reused).
  size_t IdSpan() const { return next_id_; }

  /// Store generation: 0 after Build, +1 per MergeUpdates().
  uint64_t generation() const { return generation_; }

  /// The engine's durable update log (head/tail markers, pending records).
  const UpdateLog& update_log() const { return update_log_; }

  /// Pending (unmerged) delta rows across all vector shards.
  size_t pending_delta_rows() const;

  /// Live tombstones (set bits) awaiting the next merge.
  size_t tombstone_count() const { return tombstone_count_; }

  /// Whether `id` is currently tombstoned (always false after a merge —
  /// the row is physically gone and the bitset cleared). Out-of-range ids
  /// report false.
  bool IsDeleted(int64_t id) const {
    if (id < 0) return false;
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= tombstones_.size()) return false;
    return (tombstones_[word] >> (static_cast<size_t>(id) & 63)) & 1u;
  }

  /// Attaches one int32 metadata label per stored vector (e.g. a tenant,
  /// category, or shard-group id), indexed by global id. Must be called
  /// after Build() with exactly IdSpan() entries — after InsertVectors, call
  /// it again so the new ids carry labels; enables filtered search.
  Status SetLabels(std::vector<int32_t> labels);

  /// Replaces the engine's fault plan for subsequent SearchBatch* calls —
  /// the CLI/bench hook for sweeping drop rates without rebuilding.
  void SetFaultPlan(FaultPlan faults) { options_.faults = std::move(faults); }

  /// Replaces the parallelism knobs for subsequent SearchBatch* calls — the
  /// bench hook for sweeping threads-per-node and group size without
  /// rebuilding the index (same pattern as SetFaultPlan).
  void SetParallelism(size_t threads_per_node, size_t query_group_size,
                      bool shared_scans) {
    options_.threads_per_node = threads_per_node;
    options_.query_group_size = query_group_size;
    options_.shared_scans = shared_scans;
  }

  /// Executes one query batch on the simulated cluster and returns exact
  /// (pruning-safe) approximate-search results plus full instrumentation.
  /// With `allowed_label`, only vectors carrying that label qualify: the
  /// predicate is pushed down into the first dimension stage on each
  /// machine, so filtered-out vectors cost one label test instead of a
  /// distance computation. Filtering requires SetLabels().
  Result<BatchResult> SearchBatch(
      const DatasetView& queries, size_t k, size_t nprobe,
      std::optional<int32_t> allowed_label = std::nullopt);

  /// Like SearchBatch but skips the per-batch cost-model re-plan and runs on
  /// the currently-materialized partition plan, mirroring how
  /// SearchBatchThreaded already behaves. This is the serving-path entry
  /// point: a continuous frontend dispatches many tiny groups (<=
  /// kMaxQueryGroup queries), and profiling + re-planning per group would
  /// both dominate latency and let a 4-query sample repartition the whole
  /// grid. Re-balancing epochs belong to an offline SearchBatch call.
  Result<BatchResult> SearchBatchPinned(const DatasetView& queries, size_t k,
                                        size_t nprobe);

  /// Executes the same pipeline on real threads (functional validation /
  /// actual in-process deployment). Uses the current plan without
  /// re-planning. `allowed_label` filters as in SearchBatch.
  Result<ThreadedOutput> SearchBatchThreaded(
      const DatasetView& queries, size_t k, size_t nprobe,
      std::optional<int32_t> allowed_label = std::nullopt);

  /// Index storage accounting (Table 4): stored bytes per machine etc.
  MemoryStats IndexMemory() const;

  /// The engine's grid quantizer; trained() only when use_pq_streams is on
  /// and the current plan's stores carry code streams.
  const GridQuantizer& quantizer() const { return quantizer_; }

  /// The exact ExecOptions SearchBatchThreaded would execute with — the
  /// socket backend builds its remote batches from the same tuning so its
  /// results are bit-comparable to the in-process engines.
  ExecOptions BuildExecOptions(size_t k, size_t nprobe) const {
    return MakeExecOptions(k, nprobe);
  }

  /// Client-side prewarm cache (shared by every execution backend).
  const PrewarmCache& prewarm_cache() const { return prewarm_; }

 private:
  Status FinishBuild();
  Status Repartition(const PartitionPlan& plan);
  /// Folds the pending delta rows into a fresh copy-on-write epoch of the
  /// worker stores (shared_ptr so in-flight batches pin their generation
  /// while a merge swaps underneath). No-op when the delta is clean; a
  /// delta that emptied (all rows merged) drops the epoch so execution
  /// falls back to the frozen stores byte-identically.
  Status RefreshEpoch();
  /// The store vector batches execute against: the materialized epoch when
  /// one exists, otherwise the frozen stores.
  const std::vector<WorkerStore>& ActiveStores() const {
    return epoch_stores_ != nullptr ? *epoch_stores_ : stores_;
  }
  /// Re-buckets pending delta rows after a plan change: list→shard
  /// ownership and dim ranges may both have moved, so rows are re-appended
  /// from their retained full-dim originals.
  void RedistributeDelta(const PartitionPlan& plan);
  Status InsertOne(const float* row, int64_t gid);
  /// (Re)trains the grid quantizer for `plan`'s dim ranges on a
  /// deterministic sample of the stored vectors; clears it when
  /// use_pq_streams is off. Runs before worker stores materialize so they
  /// can encode code streams.
  Status TrainQuantizer(const PartitionPlan& plan);
  /// `allowed_label` sets the label filter; callers check it first with
  /// CheckFilter.
  ExecOptions MakeExecOptions(
      size_t k, size_t nprobe,
      std::optional<int32_t> allowed_label = std::nullopt) const;
  /// The SetLabels preconditions of a filtered search (OK when unfiltered).
  Status CheckFilter(std::optional<int32_t> allowed_label) const;
  /// The execution half of SearchBatch: routes and runs `queries` on the
  /// simulated cluster using the current plan, no re-planning.
  Result<BatchResult> ExecuteOnCurrentPlan(
      const DatasetView& queries, size_t k, size_t nprobe,
      std::optional<int32_t> allowed_label, double plan_seconds);

  HarmonyOptions options_;
  size_t effective_machines_ = 1;
  IvfIndex index_;
  PartitionPlan plan_;
  std::vector<WorkerStore> stores_;
  bool stores_with_norms_ = false;
  GridQuantizer quantizer_;
  std::vector<int32_t> labels_;
  PrewarmCache prewarm_;
  PlanChoice last_choice_;
  BuildStats build_stats_;
  size_t repartition_count_ = 0;
  bool built_ = false;

  // Epoch-versioned mutable-store state (docs/mutability.md).
  UpdateLog update_log_;
  std::vector<DeltaShard> delta_;        // one per vector shard
  std::vector<uint64_t> tombstones_;     // bitset over [0, next_id_)
  size_t tombstone_count_ = 0;
  uint64_t generation_ = 0;
  /// Materialized epoch: frozen stores + delta rows folded in. Null when no
  /// delta is pending (execution reads stores_ directly — the updates-off
  /// byte-identity path). shared_ptr pins the payload for in-flight chains.
  std::shared_ptr<std::vector<WorkerStore>> epoch_stores_;
  bool epoch_dirty_ = false;
  size_t next_id_ = 0;
};

}  // namespace harmony

#endif  // HARMONY_CORE_ENGINE_H_
