#ifndef HARMONY_CORE_EXEC_PLAN_H_
#define HARMONY_CORE_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/block_scan.h"
#include "core/exec_options.h"
#include "core/partition.h"
#include "core/pruning.h"
#include "core/router.h"
#include "core/worker.h"
#include "index/ivf_index.h"
#include "net/fault.h"
#include "net/health.h"
#include "storage/dataset.h"
#include "util/status.h"
#include "util/topk.h"

namespace harmony {

/// \brief Execution knobs; each maps to one of the optimizations isolated
/// in the paper's Figure 9 ablation. The knobs shared with the engine
/// facade live in the ExecTuning base (core/exec_options.h); the fields
/// below exist only at the execution layer.
struct ExecOptions : ExecTuning {
  Metric metric = Metric::kL2;
  size_t k = 10;
  size_t nprobe = 8;
  /// Load-aware dynamic ordering: blocks owned by currently-overloaded
  /// machines are deferred to late pipeline stages where pruning has
  /// removed most candidates (Section 4.3, "Load Balancing Strategies").
  bool dynamic_dim_order = true;
  /// Batched block-scan kernels (docs/kernels.md): vectorized
  /// prune-compaction + multi-row SIMD partial distances over list-major
  /// candidate runs. Off selects the historical per-candidate reference
  /// loop; both paths are bitwise identical in results, op charges and
  /// virtual-clock timings (regression-tested), so this knob exists only
  /// for that A/B and for perf bisection.
  bool use_batched_kernels = true;
  /// Optional metadata filter: when `labels` is non-null (one int32 per
  /// global vector id), only candidates whose label equals `allowed_label`
  /// are scanned — predicate push-down into the first dimension stage.
  const std::vector<int32_t>* labels = nullptr;
  int32_t allowed_label = -1;
  /// The engine's grid quantizer; required (trained, plan-aligned) when
  /// `use_pq_streams` is on, ignored otherwise. Like `labels`, a borrowed
  /// pointer — the engine owns the quantizer.
  const GridQuantizer* pq = nullptr;
  /// Tombstone bitset over global ids (docs/mutability.md); null when no
  /// deletes are pending. Tombstoned rows are still scanned and billed —
  /// they live in the frozen blocks until the next merge — but are filtered
  /// at the rank barrier, so they never reach a result heap or survive
  /// exact rerank. Borrowed from the engine's mutable-store state.
  const uint64_t* tombstones = nullptr;
  size_t tombstone_words = 0;
  /// Store generation the batch executes against (bumped by each merge);
  /// recorded so traces and parity checks can name the snapshot.
  uint64_t store_generation = 0;
};

/// \brief Everything one batch execution needs, resolved once up front and
/// shared read-only by every stage of both engines: the static tables
/// (index, partition plan, stores, prewarm cache, routing, queries, options)
/// plus the derived per-batch facts each engine used to recompute inline.
struct ExecContext {
  const IvfIndex* index = nullptr;
  const PartitionPlan* plan = nullptr;
  const std::vector<WorkerStore>* stores = nullptr;
  const PrewarmCache* prewarm = nullptr;
  const BatchRouting* routing = nullptr;
  /// The batch's queries, held by value (a view: one pointer, two sizes),
  /// so a context never outlives a temporary view its caller passed in.
  DatasetView queries;
  const ExecOptions* opts = nullptr;

  size_t b_dim = 0;
  size_t dim = 0;
  size_t num_queries = 0;
  bool use_ip = false;
  /// Remaining-norm tracking is only materialized when inner-product
  /// pruning can actually fire (more than one dimension block).
  bool use_norms = false;
  uint32_t max_retries = 0;

  /// Fault oracle of the engine's cluster; attached by the engine glue once
  /// its cluster exists (the threaded cluster is built after the context).
  const FaultInjector* faults = nullptr;
  bool faulty = false;

  /// Replication factor of the plan (>= 1). `routed` is true when replica
  /// routing is active — either because the plan is replicated (R > 1 spreads
  /// stage load across replicas even on healthy runs) or because faults can
  /// fire (the replica walk is what decides delivery / failover / loss). At
  /// R = 1 with no faults both engines keep the historical direct path.
  size_t replication = 1;
  bool routed = false;

  /// Quantized block streams (docs/quantization.md). The context holds no
  /// ADC table: each stage builds block d's tables for its chain's lists
  /// on the machine that scans them (BuildStageAdcTables, called by
  /// MakeStageScanParams and by group stages per member) and frees them
  /// when the stage ends.
  bool use_pq = false;
  /// IP/cosine only: ||q^(d)|| per (query, block) — `pq_q_norm[q * b_dim +
  /// d]` — the Cauchy–Schwarz factor that turns the per-row quantization
  /// residual into an upper bound on the block's true inner product.
  std::vector<float> pq_q_norm;
  /// Ops one query's LUT build costs (billed by PrewarmQuery's charge hook,
  /// where the simulator models Algorithm 1's per-query prep; the wall-clock
  /// build happens in the stages).
  uint64_t lut_build_ops = 0;

  /// Tombstone bitset of the batch's store snapshot (copied from the
  /// options): rows whose bit is set are dead — scanned and billed like any
  /// frozen row, but dropped at the rank barrier by both engines.
  const uint64_t* tombstones = nullptr;
  size_t tombstone_words = 0;
  uint64_t store_generation = 0;

  /// True when `id` is tombstoned in this batch's snapshot. Ids past the
  /// bitset (rows inserted after the set was sized) are live.
  bool IsDeleted(int64_t id) const {
    if (tombstones == nullptr || id < 0) return false;
    const size_t word = static_cast<size_t>(id) >> 6;
    if (word >= tombstone_words) return false;
    return (tombstones[word] >> (static_cast<size_t>(id) & 63)) & 1u;
  }

  /// Node-health tracker of the running batch; attached by the engine glue
  /// (each engine owns one tracker per Execute* call). May stay null: all
  /// readers treat a missing tracker as "every node healthy".
  NodeHealthTracker* health = nullptr;

  /// Resolved kernel table of this batch (never null after
  /// MakeExecContext): the dispatch tier plus the per-metric tile shapes
  /// every scan stage of both engines runs with. Recording it here, rather
  /// than letting each stage consult process state, is what makes
  /// simulated and threaded replays of one batch execute the identical
  /// kernels.
  const KernelTuneTable* kernel_tune = nullptr;

  /// The stage dispatch under this batch's recorded table (metric comes
  /// from the options).
  KernelDispatch Dispatch() const {
    return kernel_tune->DispatchFor(opts->metric);
  }

  void AttachFaults(const FaultInjector* injector) {
    faults = injector;
    faulty = injector != nullptr && injector->enabled();
    routed = faulty || replication > 1;
  }

  void AttachHealth(NodeHealthTracker* tracker) { health = tracker; }
};

/// Validates the batch inputs shared by both engines (query dimensionality,
/// the 64-block lost-mask limit, fault-plan probabilities and multipliers,
/// replication-factor bounds) and resolves the derived facts. Engine glue
/// keeps its substrate-specific checks (cluster size, store count).
/// The context borrows `routing` and `opts`: both must outlive it, so the
/// overloads below reject temporaries at compile time.
Result<ExecContext> MakeExecContext(const IvfIndex& index,
                                    const PartitionPlan& plan,
                                    const std::vector<WorkerStore>& stores,
                                    const PrewarmCache& prewarm,
                                    const BatchRouting& routing,
                                    const DatasetView& queries,
                                    const ExecOptions& opts);
Result<ExecContext> MakeExecContext(const IvfIndex&, const PartitionPlan&,
                                    const std::vector<WorkerStore>&,
                                    const PrewarmCache&, const BatchRouting&&,
                                    const DatasetView&,
                                    const ExecOptions&) = delete;
Result<ExecContext> MakeExecContext(const IvfIndex&, const PartitionPlan&,
                                    const std::vector<WorkerStore>&,
                                    const PrewarmCache&, const BatchRouting&,
                                    const DatasetView&,
                                    const ExecOptions&&) = delete;

/// \brief One chain's materialized scan state: the per-(block, list) slice
/// table plus the candidate SoA arrays that flow through the dimension
/// stages (pipeline batches / baton hops own ranges of them and compact
/// survivors in place). Under PQ streams the chain carries no ADC table:
/// each stage builds its own from `slices` (BuildStageAdcTables).
struct ChainCandidates {
  /// slices[d * lists + li]: the slice of chain list li in block d, on the
  /// machine owning grid block (shard, d). Built once per chain at dispatch
  /// (the client holds the routing tables and, in-process, can read every
  /// store), so stages pay neither the lookup nor a per-stage allocation.
  std::vector<const ListSlice*> slices;
  std::vector<int64_t> id;
  std::vector<int32_t> list;
  std::vector<int32_t> row;
  std::vector<float> partial;
  std::vector<float> rem_p_sq;
  /// PQ streams only: the conservative per-candidate bound the prune masks
  /// run on — a lower bound on the true partial L2², or an upper bound on
  /// the true partial IP, folded from ADC sums and per-row residual slack.
  /// `partial` then holds the raw ADC estimate (what rerank ordering uses);
  /// compaction moves `bound` in lockstep with the other SoA columns.
  std::vector<float> bound;
  std::vector<float> q_block_norm;  // per block (inner-product pruning)
  float rem_q_total = 0.0f;
};

/// Fills the chain's per-(block, list) slice table.
void BuildChainSliceTable(const ExecContext& ctx, const QueryChain& chain,
                          ChainCandidates* cand);

/// PQ streams only: block d's ADC tables for every list of `chain` that has
/// a slice in the block — a pure function of (quantizer, centroids, query),
/// so every engine and every rebuild yields the same bits. Codes are
/// coarse-centroid residuals, so each list gets its own table: for L2 it is
/// built from the residual query q - c_l; for IP from q, with the constant
/// block term <q^(d), c_l^(d)> folded into subspace 0's entries, so the ADC
/// sum estimates the block's true partial either way. Called on the thread
/// that runs the stage; `cand` supplies the slice table.
std::shared_ptr<const StageAdcTables> BuildStageAdcTables(
    const ExecContext& ctx, const QueryChain& chain,
    const ChainCandidates& cand, size_t d);

/// Reserves every candidate column the chain uses to the row total of its
/// block-0 slices (and q_block_norm to b_dim under use_norms), so the
/// BuildChainCandidateArrays / ComputeQueryBlockNorms that follow allocate
/// nothing. Requires BuildChainSliceTable to have run.
void ReserveChainCandidateArrays(const ExecContext& ctx,
                                 const QueryChain& chain,
                                 ChainCandidates* cand);

/// Builds (replaces) the candidate SoA arrays from the
/// (dimension-independent) row layout of the chain's list slices — block
/// 0's slices are as good as any — in probe order (nearest list first) so
/// the earliest batches tighten the threshold for the rest of the chain.
/// Skips ids already scored during prewarm and, under a label filter, ids
/// with the wrong label. Each column is sized once to the unfiltered row
/// total and trimmed to the rows kept. Requires BuildChainSliceTable to
/// have run.
void BuildChainCandidateArrays(const ExecContext& ctx, const QueryChain& chain,
                               const std::unordered_set<int64_t>& prewarmed,
                               ChainCandidates* cand);

/// Per-block query self-products for inner-product pruning (use_norms):
/// fills q_block_norm and rem_q_total.
void ComputeQueryBlockNorms(const ExecContext& ctx, const QueryChain& chain,
                            ChainCandidates* cand);

/// \brief Replica preference order of the stage at (chain.probe_rank,
/// chain.shard, block d). Deterministic given (plan, folded health state):
/// a hash rotation of [0, R) keyed by ReplicaRouteKey spreads primaries
/// across replicas, then a stable sort demotes unhealthy replicas — nodes
/// crashed from the start (static fault-plan truth) sort last, quarantined
/// nodes (folded by the health tracker at the previous rank barrier)
/// sort after healthy ones. R = 1 yields {0} untouched. All chains of one
/// (probe_rank, shard) group share the order, so group stages agree on a
/// machine without per-member coordination.
void StageReplicaOrder(const ExecContext& ctx, const QueryChain& chain,
                       size_t block, std::vector<uint8_t>* order);

/// First replica in StageReplicaOrder whose machine is not crashed from the
/// start — the stage's primary. Falls back to the order's front when every
/// replica is dead (callers only consult the primary when some member still
/// wants the block, which implies a live replica exists). R = 1 returns 0
/// without touching the order.
size_t StagePrimaryReplica(const ExecContext& ctx, const QueryChain& chain,
                           size_t block);

/// Algorithm 1's PrewarmHeap stage for one query: scores the client-cached
/// sample of every probed list into the query's heap, seeding a sound
/// pruning threshold, and records the sampled ids so chains skip them.
/// `charge` (may be null) receives the op counts the simulated client bills
/// for this work, in billing order: the centroid assignment first, then one
/// charge per non-empty probed list.
void PrewarmQuery(const ExecContext& ctx, size_t q, TopKHeap* heap,
                  std::unordered_set<int64_t>* prewarmed,
                  const std::function<void(uint64_t)>& charge);

}  // namespace harmony

#endif  // HARMONY_CORE_EXEC_PLAN_H_
