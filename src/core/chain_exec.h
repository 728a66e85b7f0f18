#ifndef HARMONY_CORE_CHAIN_EXEC_H_
#define HARMONY_CORE_CHAIN_EXEC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/block_scan.h"
#include "core/exec_plan.h"
#include "core/stats.h"
#include "net/network_model.h"
#include "util/topk.h"

namespace harmony {

/// What one member's dimension-stage scan reports back to ChainExecutor,
/// which books it through the FaultLedger.
struct StageScanOutcome {
  /// False when no replica of the block could serve the scan: the block is
  /// lost and the candidates are left untouched.
  bool delivered = true;
  /// Delivery attempts the serving machine took (1 = first try).
  uint32_t attempts = 1;
  /// Replicas passed over before the serving one (dead or unreachable);
  /// each books one failover.
  uint32_t failovers = 0;
};

/// One member of a group stage as ChainExecutor hands it to
/// ExecBackend::ScanStage: the chain, its candidate arrays, the member's
/// scan parameters (MakeStageScanParams) and, on return, its outcome.
struct StageMember {
  const QueryChain* chain = nullptr;
  ChainCandidates* cand = nullptr;
  BlockScanParams scan;
  StageScanOutcome outcome;
};

/// \brief What the shared chain/group lifecycle needs from an execution
/// substrate: seven required ops and two with defaults. Three
/// implementations: the SimCluster virtual-clock backend
/// (core/pipeline.cc), the ThreadedCluster thread-pool backend
/// (core/coordinator.cc) and the socket backend, whose stage scans are
/// RPCs to worker processes (net/socket_backend.cc).
///
/// The threaded backend is push-driven: the lifecycle posts each group
/// baton's next stage into the owning node's mailbox (PostStage). The
/// simulated backend is pull-driven — its discrete-event scheduler orders
/// stages by virtual time, so stage continuations carry explicit readiness
/// instead of posts; its PostStage therefore executes the stage inline on
/// the caller (the only time-free reading of "post" a virtual-clock
/// substrate has). The socket backend posts like the threaded one, into a
/// ThreadedCluster with one frontend thread per worker connection, so the
/// workers scan different batons at the same time.
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  /// Reads `query`'s current pruning threshold τ and heap fullness under
  /// the backend's synchronization (a mutex on the threaded cluster, direct
  /// access on the single-threaded simulator).
  virtual void ReadThreshold(int32_t query, float* tau, bool* heap_full) = 0;
  /// The ids prewarm already scored for `query` (candidate builds skip
  /// them). Stable for the whole batch: prewarm runs before any dispatch,
  /// so the candidate fill may read it from any thread.
  virtual const std::unordered_set<int64_t>* PrewarmedIds(size_t query) = 0;
  /// Runs `fn` with exclusive access to `query`'s result heap (merges).
  virtual void WithQueryHeap(int32_t query,
                             const std::function<void(TopKHeap&)>& fn) = 0;
  /// Marks `query` degraded: its results were computed from an incomplete
  /// pipeline. Called by the FaultLedger, never by engine glue.
  virtual void TagDegraded(int32_t query) = 0;
  /// Bills `bytes` of row data streamed from memory by a scan on `machine`.
  virtual void ChargeStreamedBytes(size_t machine, uint64_t bytes) = 0;
  /// Bills `bytes` of quantized code-stream data streamed by a PQ-stream
  /// scan on `machine`: counted in the streamed total *and* in the separate
  /// compressed tally, so breakdowns can report how much of the traffic the
  /// codes carried (the rerank's float re-reads bill through
  /// ChargeStreamedBytes as ordinary row data).
  virtual void ChargeCompressedBytes(size_t machine, uint64_t bytes) = 0;
  /// Schedules a stage continuation on `machine`.
  virtual void PostStage(size_t machine, std::function<void()> stage) = 0;
  /// Runs a group stage: the scan of dimension block `d` for every member
  /// of `members`, leaving each member's candidate arrays holding exactly
  /// its survivors and its `outcome` filled in. `machine` is the stage
  /// primary's replica, which the returned streamed bytes are billed to.
  /// The default scans that machine's store in process as one
  /// ScanBlockGroup, so co-probing members stream each row tile once; a
  /// remote substrate ships each member's scan to a worker and may serve it
  /// from another replica or lose the block.
  virtual uint64_t ScanStage(const ExecContext& ctx, size_t d, size_t machine,
                             std::vector<StageMember>* members);
  /// Has no caller: which replica a hop reaches, and after how many
  /// attempts, is decided statically by the chain's loss schedule. The
  /// default posts `stage` and reports a first-try delivery. Kept only
  /// because the wall-clock benchmark's probe backend
  /// (benchmark/src/probes.cc) still overrides it.
  virtual uint32_t PostHop(size_t machine, uint64_t msg_key,
                           uint32_t max_retries, std::function<void()> stage);
};

/// \brief The static routing + loss schedule of one chain: a pure function
/// of the fault plan (drop coins keyed by ReplicaHopKey, start-dead
/// machines), the replica rotation and the folded health state, so both
/// engines derive the identical schedule regardless of event or thread
/// ordering.
///
/// With replication, each hop walks the stage's replica preference order
/// (StageReplicaOrder): replicas that are dead or whose coin stream
/// exhausts the retry budget burn their budget into `wasted` and — with
/// failover enabled — the walk moves on; the first replica that delivers
/// records its attempts and index. A hop is lost only when every walked
/// replica failed. At R = 1 the walk degenerates to the historical
/// single-replica schedule, field for field.
struct ChainLossSchedule {
  /// Delivery attempts on the delivering replica per hop (index b_dim =
  /// final result hop); 0 = permanently lost past the retry budget.
  std::vector<uint32_t> attempts;
  /// Replica index that delivered each hop (0 on unreplicated plans; the
  /// value is meaningless for lost hops).
  std::vector<uint8_t> replica;
  /// Delivery attempts burned on replicas that failed before the delivering
  /// one (start-dead replicas and exhausted coin streams each burn
  /// max_retries + 1). Index b_dim counts the result hop's failed replicas
  /// *plus* the delivering/last one when the hop is lost.
  std::vector<uint32_t> wasted;
  uint64_t lost_mask = 0;  ///< Dimension blocks lost for this chain.
  bool result_hop_lost = false;
  /// Hops that failed over: replicas skipped before delivery, summed.
  uint32_t failovers = 0;
  /// Hedged hops: bit d set when stage d dispatches to a second replica
  /// because its primary is a straggler (hedge_after). Only delivered block
  /// hops hedge.
  uint64_t hedge_mask = 0;
  std::vector<uint8_t> hedge_replica;  ///< Per hop; valid where the bit is set.
  uint32_t hedges = 0;                 ///< popcount(hedge_mask).
};

/// Derives the chain's schedule from the context (fault oracle, replica
/// layout, folded health) and feeds the health tracker one observation per
/// walked replica (attempts / failures / deaths). Without faults the
/// schedule is all-delivered with the rotation-chosen replica per hop and
/// the health tracker is not touched. Call exactly once per chain per rank
/// in each engine — the health feed is part of the schedule contract.
ChainLossSchedule ComputeChainSchedule(const ExecContext& ctx,
                                       const QueryChain& chain);

/// \brief Single home of FaultStats accounting and degraded tagging: every
/// retry booking, lost-message charge, block/shard loss and degraded flag
/// in both engines flows through these methods (the grep-able invariant
/// that fault semantics cannot drift between engines). Thread-safe; the
/// simulator uses it single-threaded with identical arithmetic.
class FaultLedger {
 public:
  explicit FaultLedger(ExecBackend* backend) : backend_(backend) {}

  /// Books the resends of a delivered message (attempts > 1).
  void BookDelivery(uint32_t attempts) {
    if (attempts > 1) {
      retries_.fetch_add(attempts - 1, std::memory_order_relaxed);
      messages_dropped_.fetch_add(attempts - 1, std::memory_order_relaxed);
    }
  }
  /// Books a message whose every attempt died in flight.
  void BookLostMessage(uint32_t max_retries) {
    messages_dropped_.fetch_add(max_retries + 1, std::memory_order_relaxed);
  }
  /// Books a chain's static schedule once at dispatch: every replica-walk
  /// attempt wasted on failed replicas, each lost block, the chain's
  /// failovers and hedges; the query degrades iff a block was lost. The
  /// result hop's own budget is NOT booked here (call sites book it via
  /// BookLostMessage, as they always have) — only the surplus its failed
  /// replicas burned. At R = 1 this reproduces the historical
  /// lost-blocks-times-budget arithmetic bit for bit. Callers guard on the
  /// chain having candidates.
  void BookStaticChainLoss(const ChainLossSchedule& loss, int32_t query,
                           uint32_t max_retries);
  /// Books a hop rerouted to a surviving replica after its target failed
  /// mid-run (simulated engine and remote stage scans; static failovers
  /// book via the schedule).
  void BookFailover() { failovers_.fetch_add(1, std::memory_order_relaxed); }
  /// Books a block loss observed mid-run (a baton ran into a crashed
  /// machine): counted once per (chain, block), degrading the query only
  /// when it had candidates.
  void BookObservedBlockLoss(int32_t query, bool first_loss, bool degrade) {
    if (first_loss) blocks_lost_.fetch_add(1, std::memory_order_relaxed);
    if (degrade) backend_->TagDegraded(query);
  }
  /// Books a member's stage scan that no replica could serve (a remote
  /// substrate's ScanStage): the block is lost and the query degrades.
  void BookDynamicHopLoss(int32_t query, uint32_t max_retries) {
    BookLostMessage(max_retries);
    blocks_lost_.fetch_add(1, std::memory_order_relaxed);
    backend_->TagDegraded(query);
  }
  /// Books a whole vector shard lost for `query` (no chain result reached
  /// the client).
  void BookShardLost(int32_t query) {
    shards_lost_.fetch_add(1, std::memory_order_relaxed);
    backend_->TagDegraded(query);
  }
  /// Degrades `query` without a counter (e.g. a chain whose usable blocks
  /// were all statically lost still runs the query on its other shards).
  void TagDegraded(int32_t query) { backend_->TagDegraded(query); }

  /// The accumulated counters; degraded_queries is left to the engine glue
  /// (counted from its per-query flags after the batch completes).
  FaultStats Snapshot() const;

 private:
  ExecBackend* backend_;
  std::atomic<uint64_t> messages_dropped_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> blocks_lost_{0};
  std::atomic<uint64_t> shards_lost_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> hedged_{0};
};

/// Time one message's failed delivery attempts cost its critical path (one
/// ack timeout per resend, exponential backoff); books the resends on the
/// ledger. Returns 0 for first-try deliveries.
double RetryPenaltySeconds(const NetworkModel& net, FaultLedger* ledger,
                           uint64_t bytes, uint32_t attempts);

// --- Stage ordering (the paper's static stagger + Section 4.3 load-aware
// dynamic ordering), shared verbatim by both engines.

/// The static pipeline order of chain `chain_index`: blocks 0..B-1 rotated
/// by the chain's stagger anchor; the identity when the pipeline is off or
/// there is a single block.
std::vector<size_t> BuildStaticBlockOrder(size_t b_dim, size_t chain_index,
                                          bool enable_pipeline);

/// The stagger anchor of a pipeline batch, advanced past unusable blocks:
/// consecutive batches/chains start on different machines.
size_t InitialStartBlock(bool enable_pipeline, uint64_t stagger_seq,
                         size_t b_dim, uint64_t usable_blocks);

/// The next block in cyclic order from the stagger anchor; b_dim when
/// `remaining` has no usable block.
size_t NextCyclicBlock(size_t start_block, size_t processed, size_t b_dim,
                       uint64_t remaining);

/// Load-aware dynamic block choice: among the remaining blocks whose
/// machine is within a slack of the least-busy one, pick the
/// highest-energy block (pruning power); blocks of overloaded machines are
/// deferred to late positions where pruning has removed most candidates.
/// Under faults, machines whose crash has been observed are routed around
/// unless that would leave nothing. `block_machine` maps a block to the
/// machine that would run it (the schedule-chosen replica; MachineOf on
/// unreplicated plans); `machine_load` is the substrate's load metric
/// (executed busy time plus queued work on the simulator).
size_t ChooseLoadAwareBlock(const PartitionPlan& plan, size_t b_dim,
                            uint64_t remaining, bool faulty,
                            const uint8_t* machine_dead,
                            const std::function<size_t(size_t)>& block_machine,
                            const std::function<double(size_t)>& machine_load);

/// Fills the per-stage scan parameters for candidates of `chain` entering
/// block `d`: reads τ through the backend and gates pruning on the stage
/// having prior partials (`processed > 0`) and a full heap.
BlockScanParams MakeStageScanParams(const ExecContext& ctx,
                                    ExecBackend* backend,
                                    const QueryChain& chain,
                                    const ChainCandidates& cand, size_t d,
                                    size_t processed, float rem_q_sq);

/// \brief Exact float rerank of one chain's quantized survivors at the rank
/// barrier (docs/quantization.md), shared by both engines so their rerank
/// arithmetic is a single function. For candidates [begin, begin + count) it
/// accumulates the exact partial distance over the blocks set in
/// `scanned_mask` — ascending d, one row-kernel call per block, the same
/// accumulation sequence the float path performs stage by stage with the
/// pipeline off — and writes the heap-convention distance (negated IP) into
/// `dist_out[i - begin]`. Candidates not reranked get +infinity:
///  * Depth cap: when ExecOptions::rerank_depth is in (0, count), only the
///    best `rerank_depth` candidates by quantized score (ADC partial in
///    distance convention, ties by ascending id) are reranked — a recall /
///    cost knob that intentionally forfeits exactness (and bitwise parity
///    with the float path).
///  * τ-skip (`skip_by_tau`, callers gate it on enable_pruning && heap_full):
///    a candidate whose accumulated `bound` already proves it cannot beat
///    `tau` is skipped — sound because the L2 bound lower-bounds and the IP
///    bound upper-bounds the exact reranked value.
/// Returns the number of candidates actually reranked (what rerank byte/op
/// billing charges for).
size_t RerankChainCandidates(const ExecContext& ctx, const QueryChain& chain,
                             const ChainCandidates& cand,
                             uint64_t scanned_mask, size_t begin, size_t count,
                             bool skip_by_tau, float tau, float* dist_out);

/// \brief Rerank order: candidate `a` precedes `b` by quantized score (ADC
/// partial in distance convention — negated for IP — with ascending-id tie
/// break). Ids are unique within a chain, so the order is a pure function of
/// the candidate arrays; the depth cap in both engines picks by it.
bool RerankOrderLess(const ChainCandidates& cand, bool use_ip, size_t a,
                     size_t b);

/// \brief Explicit-pick core of RerankChainCandidates: reranks exactly the
/// candidates listed in `pick` (absolute indices into the SoA arrays),
/// subject to the same τ-skip, and writes each reranked distance to
/// `dist_out[idx - dist_base]`. The caller pre-fills `dist_out` with
/// +infinity and owns the pick policy — RerankChainCandidates derives its
/// pick from the depth cap over one contiguous range; the simulator derives
/// a chain-wide pick spanning its pipeline batches (each batch then reranks
/// its own picks over the blocks it actually scanned). Returns the number
/// reranked.
size_t RerankChainIndices(const ExecContext& ctx, const QueryChain& chain,
                          const ChainCandidates& cand, uint64_t scanned_mask,
                          const size_t* pick, size_t n_pick, bool skip_by_tau,
                          float tau, size_t dist_base, float* dist_out);

/// \brief The simulator's shared-scan byte accounting (never touches a
/// clock): with grouping on, each (query group, dim block, IVF list, 64-row
/// span) entry holds a bitmask of list rows the group has already billed; a
/// survivor bills its row only if no co-probing member billed it first. The
/// group total is therefore the *union* of member rows — the quantity the
/// threaded engine's ScanBlockGroup merge-walk streams once for the whole
/// group — and, row for row, at most what the per-query path bills. Keys
/// use the actual list-row index, not the post-compaction batch position,
/// so co-probing members agree on units regardless of how differently
/// their candidate arrays compacted. Keys are packed lossily (masked
/// fields); a collision only under-bills, deterministically.
class SharedScanBiller {
 public:
  explicit SharedScanBiller(const ExecContext& ctx);

  /// Bytes one stage streamed: survivors x row bytes ungrouped, the
  /// group-union increment with shared scans on. `begin`/`survivors` bound
  /// the stage's compacted candidate range.
  uint64_t StageBytes(size_t chain_index, const QueryChain& chain,
                      const ChainCandidates& cand, size_t d, size_t begin,
                      size_t survivors, uint64_t row_bytes);

 private:
  const ExecContext& ctx_;
  bool grouped_ = false;
  std::unordered_map<uint64_t, uint64_t> streamed_rows_;
};

// --- The group-baton lifecycle state machine (push-driven engines).

/// One chain's state as a member of a group baton. The candidate set is
/// built before dispatch (allocated by the client, which holds the routing
/// tables, and filled on the node pools from the in-process stores), so a
/// chain whose first hop is lost never half-executes.
struct ChainExecState {
  const QueryChain* chain = nullptr;
  ChainCandidates cand;
  float rem_q_sq = 0.0f;
  /// Statically lost blocks: kept in the shared group order and skipped for
  /// this member (other members may still want them).
  uint64_t lost_mask = 0;
  /// Stages this chain actually scanned; gates pruning (the first scanned
  /// stage has no partials yet). Lags the pipeline position wherever a
  /// block was skipped — lost, or not wanted by this group member.
  size_t processed = 0;
  /// Dimension blocks this chain actually scanned (bit d set after block d's
  /// stage ran). PQ streams rerank exactly these blocks from the float
  /// slices — a pure function of the (deterministic) loss schedule, so both
  /// engines rerank identical block sets.
  uint64_t scanned_mask = 0;
  /// The chain's routing + loss schedule; empty vectors on unrouted runs
  /// (R = 1 with no faults), where every hop lands on replica 0.
  ChainLossSchedule sched;
};

/// The baton of one query group: chains that co-probe `shard` at the same
/// probe rank (BatchRouting::chain_group), or a single chain when groups
/// are off. The group walks one block order and each stage runs as one
/// ExecBackend::ScanStage on the owning machine — in process a single
/// ScanBlockGroup, streaming every row tile once for all members.
struct GroupExecState {
  int32_t shard = 0;
  std::vector<size_t> order;  ///< All b_dim blocks, shared pipeline order.
  size_t pos = 0;             ///< Current pipeline position.
  std::vector<std::shared_ptr<ChainExecState>> members;
};

/// \brief Drives group-baton lifecycles — candidate build, static loss
/// application, stage execution, baton hops, fault booking, result merge —
/// over an ExecBackend. Every chain rides a group baton; a chain with no
/// co-probing partner (or any chain when groups are off) is a group of
/// one, whose order is the chain's own stagger rotation. The threaded and
/// socket engines drive it end to end (RunChainBatch); the simulated
/// engine shares the per-stage pieces (loss schedules, ordering, booking,
/// scan parameters, billing) but schedules stages from its own
/// virtual-time event loop.
class ChainExecutor {
 public:
  /// `on_done` fires once per finished group baton.
  ChainExecutor(const ExecContext& ctx, ExecBackend* backend,
                FaultLedger* ledger, std::function<void()> on_done)
      : ctx_(ctx),
        backend_(backend),
        ledger_(ledger),
        on_done_(std::move(on_done)) {}

  /// Optional per-query completion feed: fires once for every chain that
  /// reaches its end of life through the executor (after its results have
  /// merged), carrying the chain's query id. The engine glue counts chains
  /// per query against this feed to stamp per-query completion times —
  /// chains it skips itself (nothing to scan, unreachable) it books
  /// directly, so the sum is exact. Set before any dispatch.
  void set_on_chain_done(std::function<void(int32_t)> fn) {
    on_chain_done_ = std::move(fn);
  }

  /// First half of chain preparation, on the client: the chain's state and
  /// slice table, with every candidate column reserved to the row total of
  /// its block-0 slices — node threads are short-lived and each keeps a
  /// malloc arena, so no candidate-sized buffer is allocated on one.
  std::shared_ptr<ChainExecState> AllocateChain(const QueryChain& chain) const;

  /// Second half: fills the candidate arrays and (for IP with multiple
  /// blocks) norm columns of every task — a pure function of (context,
  /// chain, prewarmed ids) — in min(num_machines, tasks) interleaved parts.
  /// Part p > 0 runs on machine p via PostStage, part 0 on the caller, and
  /// the call returns once every part has finished. Over sockets machine p's
  /// part runs on the frontend thread of the worker owning machine p.
  /// A task left with no candidate has nothing to scan (no posts needed).
  void FillChains(
      const std::vector<std::shared_ptr<ChainExecState>>& tasks) const;

  /// Static loss: derives the chain's schedule, books its lost blocks and
  /// sets its skip mask. Returns true when the chain is unreachable (every
  /// block lost, or the result hop can never be delivered) — booked as a
  /// lost shard; the caller skips the chain. No-op on unrouted runs.
  bool ApplyGroupMemberLoss(ChainExecState* task) const;

  /// The block order of a group, anchored at its first member's stagger —
  /// the rotation that chain would walk alone; later members inherit it,
  /// which is what lets the whole group ride one baton.
  std::vector<size_t> MakeGroupOrder(size_t anchor_chain_index) const;

  /// Posts the group's next stage at or after position `from`, skipping
  /// blocks no member still wants (statically lost for every member, or the
  /// members that wanted them ran out of candidates). Returns false when no
  /// stage remains. The baton is a plain PostStage: per-member hop delivery
  /// was decided statically at dispatch (lost_mask) and its retries are
  /// billed per member inside the stage, so the baton itself never drops.
  bool PostGroupStageFrom(std::shared_ptr<GroupExecState> group, size_t from);

 private:
  /// Machine a group stage runs on: the stage primary's replica of block
  /// `d`. MachineOf on unreplicated plans; member-independent (the whole
  /// group shares one (probe_rank, shard) replica order).
  size_t GroupStageMachine(const GroupExecState& group, size_t d) const;

  /// Bills a stage scan's bytes to `machine`: compressed code-stream bytes
  /// under PQ streams, float row bytes otherwise.
  void ChargeScanBytes(size_t machine, uint64_t bytes);
  void FillChain(ChainExecState* task) const;
  void RunGroupStage(std::shared_ptr<GroupExecState> group);
  void MergeChainResults(const ChainExecState& task);
  void FinishGroup(const std::shared_ptr<GroupExecState>& group);

  const ExecContext& ctx_;
  ExecBackend* backend_;
  FaultLedger* ledger_;
  std::function<void()> on_done_;
  std::function<void(int32_t)> on_chain_done_;
};

}  // namespace harmony

#endif  // HARMONY_CORE_CHAIN_EXEC_H_
