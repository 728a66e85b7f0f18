#ifndef HARMONY_CORE_STATS_H_
#define HARMONY_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "util/topk.h"

namespace harmony {

/// \brief Per-dimension-slice pruning counters (Figure 2(a) / Table 3).
///
/// A candidate that computes pipeline positions 0..p and is then pruned
/// increments `dropped_after[p]`; the pruning ratio at position j is the
/// fraction of candidates that never computed slice j. With a fixed
/// dimension order, position j is physical slice j.
struct PruneStats {
  std::vector<uint64_t> dropped_after;  // size = num positions
  uint64_t total_candidates = 0;

  void Resize(size_t positions) { dropped_after.assign(positions, 0); }

  /// Fraction of candidates whose slice-`position` computation was skipped.
  double PruneRatioAt(size_t position) const;

  /// Mean of PruneRatioAt over all positions (Table 3's last column).
  double AveragePruneRatio() const;

  void Merge(const PruneStats& other);
};

/// \brief Index build timing, split into the paper's Figure 10 stages.
struct BuildStats {
  double train_seconds = 0.0;      // k-means ("Train")
  double add_seconds = 0.0;        // list assignment ("Add")
  double preassign_seconds = 0.0;  // distributing blocks ("Pre-assign")
};

/// \brief Memory accounting (Tables 4 and 5).
struct MemoryStats {
  /// Stored index bytes summed over machines (base blocks + ids + norms).
  uint64_t index_bytes_total = 0;
  /// Largest per-machine stored index footprint.
  uint64_t index_bytes_max_node = 0;
  /// Client-side bytes (centroids + prewarm cache + PQ codebooks).
  uint64_t client_bytes = 0;
  /// Quantized code-stream bytes stored across machines (PQ codes plus the
  /// per-row residual slack floats) — a subset of index_bytes_total; 0
  /// without use_pq_streams. Table 4's compressed column.
  uint64_t index_code_bytes = 0;
  /// Peak per-machine bytes during query execution (stored blocks plus the
  /// widest concurrent set of in-flight intermediates).
  uint64_t peak_query_bytes = 0;
  /// Pending delta-shard buffers (full rows + id/list columns) awaiting the
  /// next merge; 0 between merges with no updates.
  uint64_t delta_bytes_total = 0;
  /// Live tombstone bitset over the global id space; 0 with no pending
  /// deletes (the bitset is dropped at each merge).
  uint64_t tombstone_bytes = 0;
};

/// \brief Degraded-mode accounting for a fault-injected run. All zeros on
/// the healthy path.
struct FaultStats {
  /// Delivery attempts that the fault plan dropped (including the attempts
  /// of messages that were eventually delivered after retries).
  uint64_t messages_dropped = 0;
  /// Successful resends: messages that needed more than one attempt.
  uint64_t retries = 0;
  /// (chain, dimension-block) units lost past the retry budget: those
  /// candidates completed with the block's distance contribution missing.
  uint64_t blocks_lost = 0;
  /// Chains whose every dimension block (or final result hop) was lost —
  /// the whole vector shard contributed nothing to that query.
  uint64_t shards_lost = 0;
  /// Hops rerouted to a surviving replica after their preferred replica
  /// failed (dead node or exhausted retry budget). Zero at R = 1.
  uint64_t failovers = 0;
  /// Stages dispatched to a second replica because the primary was a
  /// straggler (hedge_after). Zero with hedging off or at R = 1.
  uint64_t hedged = 0;
  /// Queries whose result set was computed from an incomplete pipeline.
  size_t degraded_queries = 0;
  /// recall@K over the degraded queries only; filled by callers that hold
  /// ground truth (CLI, benchmarks) — the engine itself reports -1.
  double degraded_recall = -1.0;

  bool any() const {
    return messages_dropped > 0 || retries > 0 || blocks_lost > 0 ||
           shards_lost > 0 || failovers > 0 || hedged > 0 ||
           degraded_queries > 0;
  }
  std::string ToString() const;
};

/// \brief Everything measured for one executed batch.
struct BatchStats {
  size_t num_queries = 0;
  double makespan_seconds = 0.0;
  double qps = 0.0;
  double plan_seconds = 0.0;  // cost-model + routing time (client, virtual)
  ClusterBreakdown breakdown;
  PruneStats prune;
  MemoryStats memory;
  FaultStats faults;
  /// Per-node virtual accounting, for imbalance and utilization reporting.
  std::vector<double> node_compute_seconds;
  std::vector<double> node_comm_seconds;
  std::vector<double> node_idle_seconds;
  double client_clock_seconds = 0.0;
  double client_compute_seconds = 0.0;
  /// Per-query virtual latency summary (all queries arrive at t=0).
  double latency_p50_seconds = 0.0;
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  double latency_max_seconds = 0.0;

  std::string ToString() const;
};

/// \brief Results plus stats for one batch.
struct BatchResult {
  std::vector<std::vector<Neighbor>> results;
  /// Per-query degraded flag: results[q] was computed from an incomplete
  /// pipeline (lost shard/block past the retry budget). All zeros on a
  /// healthy run.
  std::vector<uint8_t> degraded;
  /// Per-query virtual completion time (all queries arrive at t=0, so this
  /// is the query's simulated latency). The percentiles in `stats` are
  /// computed from exactly these values; the serving layer adds each
  /// query's dispatch time to get its end-to-end latency.
  std::vector<double> query_seconds;
  BatchStats stats;
};

/// \brief recall@K restricted to flagged (degraded) queries; -1 when no
/// query is flagged. Lets benchmarks fill FaultStats::degraded_recall.
double RecallOverFlagged(const std::vector<std::vector<Neighbor>>& results,
                         const std::vector<uint8_t>& flagged,
                         const std::vector<std::vector<Neighbor>>& ground_truth,
                         size_t k);

}  // namespace harmony

#endif  // HARMONY_CORE_STATS_H_
