#ifndef HARMONY_CORE_EXEC_OPTIONS_H_
#define HARMONY_CORE_EXEC_OPTIONS_H_

#include <cstddef>

#include "index/scan_kernel.h"
#include "net/fault.h"

namespace harmony {

/// \brief Execution knobs shared verbatim between the engine facade
/// (HarmonyOptions) and the execution core (ExecOptions).
///
/// Both structs inherit this one, so every shared field exists exactly once
/// and flows through a single conversion point
/// (HarmonyEngine::MakeExecOptions) instead of being hand-mirrored field by
/// field in two places.
struct ExecTuning {
  /// Dimension-level early stop (Algorithm 1 lines 8-11).
  bool enable_pruning = true;
  /// Staggered dimension-block ordering + asynchronous execution; when off,
  /// every chain walks blocks 0..B-1 in physical order and the engine uses
  /// blocking communication.
  bool enable_pipeline = true;
  /// Client-cached sample vectors per IVF list for heap prewarming.
  size_t prewarm_per_list = 4;
  /// Candidates per pipeline batch. Each batch streams through the chain's
  /// dimension stages independently and its completed distances tighten the
  /// query's threshold before the next batch is checked — the granularity
  /// at which Algorithm 1's UpdatePruning refines τ.
  size_t pipeline_batch = 256;
  /// Query-group shared scans: chains that co-probe a shard at the same
  /// pipeline stage (BatchRouting::chain_group) stream each dimension
  /// block's rows once per group instead of once per query. In the threaded
  /// engine this picks the group dispatch path; in the simulated engine
  /// execution is unchanged (per-query accumulation order and tie-breaking
  /// are preserved, so results are byte-identical on/off) and only the
  /// bytes-streamed cost accounting switches to group-shared billing.
  bool shared_scans = true;
  /// Query-group size cap (chains per group); must match the group_size the
  /// routing was built with. 1 degenerates to per-query scans.
  size_t query_group_size = 4;
  /// Intra-node parallel execution: worker threads per node in the threaded
  /// engine, and compute lanes per simulated node (SimNode::ChargeComputeAt)
  /// in the simulator. 1 keeps both engines on their historical serial
  /// per-node path, bit-for-bit.
  size_t threads_per_node = 1;
  /// Fault injection + degraded-mode knobs (docs/failure_model.md). The
  /// simulated engine reads the fault plan from its SimCluster; `faults`
  /// here is what ExecuteThreaded builds its ThreadedCluster from. The
  /// default plan injects nothing and keeps both engines byte-identical to
  /// a fault-free build.
  FaultPlan faults;
  /// Resends of a lost message before its target block is declared lost and
  /// the query completes degraded.
  size_t max_retries = 2;
  /// Replicas per grid block (R). Each (vec_shard, dim_block) block is
  /// materialized on R distinct machines (PartitionPlan::ReplicaOf); the
  /// executor picks a primary per stage and — with enable_failover — retries
  /// a surviving replica when a hop exhausts its budget or its target is
  /// crashed, instead of degrading. 1 reproduces the unreplicated engines
  /// byte-for-byte.
  size_t replication_factor = 1;
  /// Hedged requests: when > 0 and R > 1, a stage whose primary replica's
  /// straggler factor (FaultPlan::delay_multiplier) is at least this
  /// multiple of nominal also dispatches to a second replica; the first
  /// response wins, the loser's bytes/ops are still billed. 0 disables.
  double hedge_after = 0.0;
  /// Fail over lost hops to surviving replicas (no effect at R = 1). Off,
  /// a lost hop degrades the query exactly as in the unreplicated engines.
  bool enable_failover = true;
  /// Hard wall-clock bail-out for the threaded coordinator: when > 0, a
  /// batch that fails to finish within this budget (e.g. a lost baton)
  /// returns Status kTimeout instead of blocking forever. 0 disables.
  double max_wall_seconds = 0.0;
  /// Quantized block streams: scan PQ code streams with per-query ADC
  /// lookup tables instead of float rows, prune on a conservative ADC bound,
  /// and exact-rerank the survivors from the float blocks at the rank
  /// barrier (docs/quantization.md). Requires the engine to have trained a
  /// GridQuantizer (HarmonyOptions::pq_subspaces > 0). Off reproduces the
  /// float path bit for bit.
  bool use_pq_streams = false;
  /// Rerank depth cap with use_pq_streams: 0 reranks every surviving
  /// candidate (exact — final results match the float path bitwise when the
  /// pipeline is off); > 0 reranks only the `rerank_depth` best survivors
  /// by quantized partial sum (cheaper, approximate).
  size_t rerank_depth = 0;
  /// Kernel dispatch tier (docs/kernels.md, "dispatch tiers and tile
  /// shapes"); each tier's tile shape is compiled into its kernels. kAuto
  /// resolves to the widest tier the CPU supports at context-build time;
  /// an explicit tier pins it (and MakeExecContext rejects a tier the CPU
  /// lacks). AVX2 and AVX-512 are bitwise-identical per (query, row); the
  /// portable tier is its own family above width 16.
  KernelTier kernel_tier = KernelTier::kAuto;
};

}  // namespace harmony

#endif  // HARMONY_CORE_EXEC_OPTIONS_H_
