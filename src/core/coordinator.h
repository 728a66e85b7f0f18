#ifndef HARMONY_CORE_COORDINATOR_H_
#define HARMONY_CORE_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/chain_exec.h"
#include "core/partition.h"
#include "core/pipeline.h"
#include "core/pruning.h"
#include "core/router.h"
#include "core/worker.h"
#include "index/ivf_index.h"
#include "net/threaded_cluster.h"
#include "storage/dataset.h"
#include "util/status.h"

namespace harmony {

/// \brief Output of the threaded execution engine.
struct ThreadedOutput {
  std::vector<std::vector<Neighbor>> results;
  double wall_seconds = 0.0;
  /// Real per-query completion time, measured from the start of the batch to
  /// the moment the query's last chain merged its results (its in-batch
  /// latency on the real clock).
  std::vector<double> query_seconds;
  /// Per-query degraded flag (size num_queries, all zero on a healthy run);
  /// same semantics as PipelineOutput::degraded, and — because fault
  /// decisions are pure functions of the plan — the same flags the
  /// simulated engine produces for the same FaultPlan.
  std::vector<uint8_t> degraded;
  FaultStats faults;
  /// Row bytes streamed from the stores across all dimension stages. With
  /// ExecOptions::shared_scans the merge-walk streams each group-row tile
  /// once, so a group bills the union of its members' surviving rows per
  /// block; without, every chain bills its own survivors. The simulated
  /// engine (ClusterBreakdown::total_bytes_streamed) models the same
  /// union-of-group-rows rule, keyed by actual list rows; totals agree when
  /// per-member survivor sets per block agree (they do on healthy batched
  /// runs — the parity tests pin results and prune counters), and can drift
  /// slightly under fault-degraded or reference-kernel runs.
  uint64_t bytes_streamed = 0;
  /// Subset of bytes_streamed that was quantized code-stream data (PQ
  /// streams, docs/quantization.md); 0 with use_pq_streams off. The float
  /// rerank's re-reads bill into bytes_streamed only.
  uint64_t bytes_compressed = 0;
};

/// \brief ExecBackend base of the push-driven engines (ExecuteThreaded,
/// ExecuteSocket). It owns the batch's per-query state — result heap,
/// prewarmed ids, degraded flag, completion stamp — behind a per-query
/// mutex, and the batch's byte counters (real clocks have no per-machine
/// virtual clock to bill). Subclasses supply the substrate: stage posting
/// and, for remote workers, the stage scan itself.
class ChainBatchBackend : public ExecBackend {
 public:
  ChainBatchBackend();
  ~ChainBatchBackend() override;

  void ReadThreshold(int32_t query, float* tau, bool* heap_full) final;
  const std::unordered_set<int64_t>* PrewarmedIds(size_t query) final;
  void WithQueryHeap(int32_t query,
                     const std::function<void(TopKHeap&)>& fn) final;
  void TagDegraded(int32_t query) final;
  void ChargeStreamedBytes(size_t machine, uint64_t bytes) final;
  void ChargeCompressedBytes(size_t machine, uint64_t bytes) final;

  /// Brings the substrate up for one batch, after `ctx` is resolved and its
  /// health tracker attached.
  virtual void Open(ExecContext* /*ctx*/) {}
  /// Stops the substrate: no posted stage runs after it returns. The driver
  /// calls it on every exit path, before its executor is destroyed.
  virtual void Close() {}
  /// First substrate failure of the batch (latched); the driver returns it
  /// at the next rank barrier.
  virtual Status status() const { return Status::OK(); }

 private:
  friend Result<ThreadedOutput> RunChainBatch(
      const IvfIndex& index, const PartitionPlan& plan,
      const std::vector<WorkerStore>& stores, const PrewarmCache& prewarm,
      const BatchRouting& routing, const DatasetView& queries,
      const ExecOptions& opts, bool allow_groups, ChainBatchBackend* backend);

  struct QueryState;
  std::vector<std::unique_ptr<QueryState>> states_;
  std::atomic<uint64_t> bytes_streamed_{0};
  std::atomic<uint64_t> bytes_compressed_{0};
};

/// \brief The rank-staged batch driver both push-driven engines run on:
/// validates the inputs, prewarms every query, then dispatches chains rank
/// by rank through ChainExecutor as group batons — the routing's shared-scan
/// groups when `allow_groups` and ExecOptions::shared_scans allow them, one
/// chain per group otherwise — waits for the rank, folds node health at the
/// barrier, and assembles the output from the ledger snapshot and the
/// per-query state. Each rank's chains are prepared in two steps: the
/// client allocates their states (slice tables, reserved candidate
/// columns), the node pools fill the candidate arrays (over sockets, the
/// frontend threads of the worker connections), and the client then walks
/// the chains in order for everything order-sensitive — skips, loss
/// schedules, ledger bookings, group assembly and first-stage posts. A
/// batch that overruns max_wall_seconds, checked between and within ranks,
/// fails with kTimeout.
Result<ThreadedOutput> RunChainBatch(
    const IvfIndex& index, const PartitionPlan& plan,
    const std::vector<WorkerStore>& stores, const PrewarmCache& prewarm,
    const BatchRouting& routing, const DatasetView& queries,
    const ExecOptions& opts, bool allow_groups, ChainBatchBackend* backend);

/// \brief Runs the same vector/dimension pipeline as ExecuteSimulated on a
/// real ThreadedCluster: every dimension-stage task executes on the thread
/// of the machine that owns the grid block, and partial-result batons hop
/// between machine mailboxes exactly as messages would between MPI ranks.
///
/// This engine validates that the algorithm is correctly parallelizable
/// (no data races, sound pruning under concurrent threshold reads) and
/// functionally agrees with the simulated engine. On a many-core host it is
/// also a usable real deployment of the algorithm in one process.
Result<ThreadedOutput> ExecuteThreaded(const IvfIndex& index,
                                       const PartitionPlan& plan,
                                       const std::vector<WorkerStore>& stores,
                                       const PrewarmCache& prewarm,
                                       const BatchRouting& routing,
                                       const DatasetView& queries,
                                       const ExecOptions& opts);

}  // namespace harmony

#endif  // HARMONY_CORE_COORDINATOR_H_
