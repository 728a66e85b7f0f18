#include "core/chain_exec.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>

#include "index/pq.h"
#include "index/scan_kernel.h"

namespace harmony {

namespace {

/// Truncates every candidate column to the first `w` rows — the survivors
/// a scan compacted to the front.
void KeepSurvivors(const ExecContext& ctx, size_t w, ChainCandidates* cand) {
  cand->id.resize(w);
  cand->list.resize(w);
  cand->row.resize(w);
  cand->partial.resize(w);
  if (ctx.use_pq) cand->bound.resize(w);
  if (ctx.use_norms) cand->rem_p_sq.resize(w);
}

}  // namespace

uint64_t ExecBackend::ScanStage(const ExecContext& ctx, size_t /*d*/,
                               size_t /*machine*/,
                               std::vector<StageMember>* members) {
  std::vector<GroupMemberScan> scans(members->size());
  for (size_t i = 0; i < scans.size(); ++i) {
    StageMember& m = (*members)[i];
    ChainCandidates& cand = *m.cand;
    GroupMemberScan& ms = scans[i];
    ms.params = std::move(m.scan);
    ms.id = cand.id.data();
    ms.list = cand.list.data();
    ms.row = cand.row.data();
    ms.partial = cand.partial.data();
    ms.rem_p_sq = ctx.use_norms ? cand.rem_p_sq.data() : nullptr;
    ms.bound = ctx.use_pq ? cand.bound.data() : nullptr;
    ms.count = cand.id.size();
    ms.global_lists = m.chain->lists.data();
  }
  const uint64_t bytes = ScanBlockGroup(scans.data(), scans.size());
  for (size_t i = 0; i < scans.size(); ++i) {
    KeepSurvivors(ctx, scans[i].survivors, (*members)[i].cand);
  }
  return bytes;
}

uint32_t ExecBackend::PostHop(size_t machine, uint64_t /*msg_key*/,
                              uint32_t /*max_retries*/,
                              std::function<void()> stage) {
  PostStage(machine, std::move(stage));
  return 1;
}

ChainLossSchedule ComputeChainSchedule(const ExecContext& ctx,
                                       const QueryChain& chain) {
  // Drop coins, start-dead machines, replica rotations and folded health
  // flags are all pure functions of (plan, rank barrier state), so the whole
  // routing + loss schedule of a chain is known at dispatch — and both
  // engines, hitting the same keys, derive the same schedule.
  const PartitionPlan& plan = *ctx.plan;
  const size_t b_dim = ctx.b_dim;
  const size_t shard = static_cast<size_t>(chain.shard);
  const uint32_t max_retries = ctx.max_retries;
  const uint32_t budget = max_retries + 1;
  const size_t reps = ctx.replication;
  const bool walk_replicas = ctx.opts->enable_failover && reps > 1;

  ChainLossSchedule loss;
  loss.attempts.assign(b_dim + 1, 1);
  loss.replica.assign(b_dim + 1, 0);
  loss.wasted.assign(b_dim + 1, 0);
  loss.hedge_replica.assign(b_dim + 1, 0);

  NodeHealthTracker* health = ctx.faulty ? ctx.health : nullptr;
  std::vector<uint8_t> order;
  for (size_t d = 0; d < b_dim; ++d) {
    StageReplicaOrder(ctx, chain, d, &order);
    if (!ctx.faulty) {
      // Routed but healthy (R > 1, no fault plan): every hop delivers first
      // try on the rotation-preferred replica; nothing to book or feed.
      loss.replica[d] = order[0];
      continue;
    }
    const size_t walk_len = walk_replicas ? reps : 1;
    bool delivered = false;
    uint32_t failed_replicas = 0;
    for (size_t i = 0; i < walk_len && !delivered; ++i) {
      const uint8_t r = order[i];
      const size_t machine =
          static_cast<size_t>(plan.ReplicaOf(shard, d, r));
      if (ctx.faults->CrashedFromStart(machine)) {
        // The hop times out through its whole budget against a dead node.
        loss.wasted[d] += budget;
        ++failed_replicas;
        if (health != nullptr) {
          health->RecordDead(machine);
          health->RecordAttempts(machine, budget);
          health->RecordFailures(machine, budget);
        }
        continue;
      }
      const uint32_t a = ctx.faults->DeliveryAttempts(
          ReplicaHopKey(chain.query, chain.shard, d, r), max_retries);
      if (a == 0) {
        loss.wasted[d] += budget;
        ++failed_replicas;
        if (health != nullptr) {
          health->RecordAttempts(machine, budget);
          health->RecordFailures(machine, budget);
        }
        continue;
      }
      loss.attempts[d] = a;
      loss.replica[d] = r;
      delivered = true;
      if (health != nullptr) {
        health->RecordAttempts(machine, a);
        if (a > 1) health->RecordFailures(machine, a - 1);
      }
    }
    if (!delivered) {
      loss.attempts[d] = 0;
      loss.lost_mask |= uint64_t{1} << d;
      loss.failovers += static_cast<uint32_t>(walk_len - 1);
      continue;
    }
    loss.failovers += failed_replicas;
    // Hedge decision: member-independent (group members must bill the same
    // stage identically), so it keys off the stage *primary* — not the
    // delivering replica — and only static fault-plan facts.
    if (ctx.opts->hedge_after > 0.0 && reps > 1) {
      uint8_t primary_r = order[0];
      for (const uint8_t r : order) {
        if (!ctx.faults->CrashedFromStart(
                static_cast<size_t>(plan.ReplicaOf(shard, d, r)))) {
          primary_r = r;
          break;
        }
      }
      const size_t primary_machine =
          static_cast<size_t>(plan.ReplicaOf(shard, d, primary_r));
      if (ctx.faults->DelayMultiplier(primary_machine) >=
          ctx.opts->hedge_after) {
        for (const uint8_t r : order) {
          if (r == primary_r) continue;
          if (ctx.faults->CrashedFromStart(
                  static_cast<size_t>(plan.ReplicaOf(shard, d, r)))) {
            continue;
          }
          loss.hedge_mask |= uint64_t{1} << d;
          loss.hedge_replica[d] = r;
          ++loss.hedges;
          break;
        }
      }
    }
  }

  // Final result hop (worker -> client). The client never dies, so the
  // "replicas" here are independent retransmit paths: with failover each
  // draws its own coin stream before the hop is declared lost.
  if (ctx.faulty) {
    const size_t walk_len = walk_replicas ? reps : 1;
    bool delivered = false;
    for (size_t r = 0; r < walk_len && !delivered; ++r) {
      const uint32_t a = ctx.faults->DeliveryAttempts(
          ReplicaHopKey(chain.query, chain.shard, b_dim, r), max_retries);
      if (a == 0) {
        loss.wasted[b_dim] += budget;
        continue;
      }
      loss.attempts[b_dim] = a;
      loss.replica[b_dim] = static_cast<uint8_t>(r);
      loss.failovers += static_cast<uint32_t>(r);
      delivered = true;
    }
    if (!delivered) {
      loss.attempts[b_dim] = 0;
      loss.result_hop_lost = true;
      loss.failovers += static_cast<uint32_t>(walk_len - 1);
    }
  }
  return loss;
}

void FaultLedger::BookStaticChainLoss(const ChainLossSchedule& loss,
                                      int32_t query, uint32_t max_retries) {
  // Every attempt burned on replicas that failed before the delivering one.
  // The result hop's own budget is excluded: call sites book it through
  // BookLostMessage exactly as the unreplicated engines always have.
  uint64_t wasted = 0;
  if (!loss.wasted.empty()) {
    const size_t b_dim = loss.wasted.size() - 1;
    for (size_t d = 0; d < b_dim; ++d) wasted += loss.wasted[d];
    wasted += loss.wasted[b_dim];
    if (loss.result_hop_lost) wasted -= max_retries + 1;
  }
  if (wasted > 0) {
    messages_dropped_.fetch_add(wasted, std::memory_order_relaxed);
  }
  if (loss.failovers > 0) {
    failovers_.fetch_add(loss.failovers, std::memory_order_relaxed);
  }
  if (loss.hedges > 0) {
    hedged_.fetch_add(loss.hedges, std::memory_order_relaxed);
  }
  if (loss.lost_mask == 0) return;
  const auto n_lost = static_cast<uint64_t>(std::popcount(loss.lost_mask));
  blocks_lost_.fetch_add(n_lost, std::memory_order_relaxed);
  backend_->TagDegraded(query);
}

FaultStats FaultLedger::Snapshot() const {
  FaultStats stats;
  stats.messages_dropped = messages_dropped_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.blocks_lost = blocks_lost_.load(std::memory_order_relaxed);
  stats.shards_lost = shards_lost_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.hedged = hedged_.load(std::memory_order_relaxed);
  return stats;
}

double RetryPenaltySeconds(const NetworkModel& net, FaultLedger* ledger,
                           uint64_t bytes, uint32_t attempts) {
  double penalty = 0.0;
  for (uint32_t a = 0; a + 1 < attempts; ++a) {
    penalty += net.RetryBackoffSeconds(bytes, a);
  }
  ledger->BookDelivery(attempts);
  return penalty;
}

std::vector<size_t> BuildStaticBlockOrder(size_t b_dim, size_t chain_index,
                                          bool enable_pipeline) {
  std::vector<size_t> order(b_dim);
  std::iota(order.begin(), order.end(), size_t{0});
  if (enable_pipeline && b_dim > 1) {
    std::rotate(order.begin(), order.begin() + (chain_index % b_dim),
                order.end());
  }
  return order;
}

size_t InitialStartBlock(bool enable_pipeline, uint64_t stagger_seq,
                         size_t b_dim, uint64_t usable_blocks) {
  size_t start = enable_pipeline ? stagger_seq % b_dim : 0;
  while ((usable_blocks & (uint64_t{1} << start)) == 0) {
    start = (start + 1) % b_dim;
  }
  return start;
}

size_t NextCyclicBlock(size_t start_block, size_t processed, size_t b_dim,
                       uint64_t remaining) {
  for (size_t step = 0; step < b_dim; ++step) {
    const size_t cand = (start_block + processed + step) % b_dim;
    if ((remaining & (uint64_t{1} << cand)) != 0) return cand;
  }
  return b_dim;
}

size_t ChooseLoadAwareBlock(
    const PartitionPlan& plan, size_t b_dim, uint64_t remaining, bool faulty,
    const uint8_t* machine_dead,
    const std::function<size_t(size_t)>& block_machine,
    const std::function<double(size_t)>& machine_load) {
  if (faulty) {
    // Route around machines whose crash has been observed, unless that
    // would leave nothing (the caller then detects the loss and degrades
    // the chain).
    uint64_t alive = remaining;
    for (size_t cand = 0; cand < b_dim; ++cand) {
      if ((remaining & (uint64_t{1} << cand)) == 0) continue;
      if (machine_dead[block_machine(cand)]) {
        alive &= ~(uint64_t{1} << cand);
      }
    }
    if (alive != 0) remaining = alive;
  }
  double min_load = -1.0;
  for (size_t cand = 0; cand < b_dim; ++cand) {
    if ((remaining & (uint64_t{1} << cand)) == 0) continue;
    const double load = machine_load(block_machine(cand));
    if (min_load < 0.0 || load < min_load) min_load = load;
  }
  const double slack = 0.10 * min_load + 1e-5;
  size_t best = b_dim;
  double best_energy = -1.0;
  for (size_t cand = 0; cand < b_dim; ++cand) {
    if ((remaining & (uint64_t{1} << cand)) == 0) continue;
    const double load = machine_load(block_machine(cand));
    if (load > min_load + slack) continue;  // Overloaded: defer.
    const double energy =
        cand < plan.block_energy.size() ? plan.block_energy[cand] : 0.0;
    if (best == b_dim || energy > best_energy) {
      best = cand;
      best_energy = energy;
    }
  }
  return best;
}

BlockScanParams MakeStageScanParams(const ExecContext& ctx,
                                    ExecBackend* backend,
                                    const QueryChain& chain,
                                    const ChainCandidates& cand, size_t d,
                                    size_t processed, float rem_q_sq) {
  const DimRange range = ctx.plan->dim_ranges[d];
  float tau;
  bool heap_full;
  backend->ReadThreshold(chain.query, &tau, &heap_full);

  BlockScanParams scan;
  scan.metric = ctx.opts->metric;
  scan.use_norms = ctx.use_norms;
  // The first scanned stage has no partials yet, so pruning would compare
  // a zero accumulator against τ; gate on prior stages having run.
  scan.prune = ctx.opts->enable_pruning && processed > 0 && heap_full;
  scan.tau = tau;
  scan.rem_q_sq = rem_q_sq;
  scan.q_slice =
      ctx.queries.Row(static_cast<size_t>(chain.query)) + range.begin;
  scan.width = range.width();
  scan.slices = cand.slices.data() + d * chain.lists.size();
  scan.use_batched = ctx.opts->use_batched_kernels;
  // Plan-recorded kernel table: the tier the context resolved once for the
  // whole batch.
  scan.kernels = ctx.kernels;
  if (ctx.use_pq) {
    const ProductQuantizer& q = ctx.opts->pq->block(d);
    // Built here, on the thread running the stage, and freed with `scan`.
    scan.adc_tables = BuildStageAdcTables(ctx, chain, cand, d);
    scan.luts = scan.adc_tables->tables.data();
    scan.ksub = q.codewords();
    scan.code_size = q.code_size();
    if (ctx.use_ip) {
      scan.q_band_norm =
          ctx.pq_q_norm[static_cast<size_t>(chain.query) * ctx.b_dim + d];
    }
  }
  return scan;
}

bool RerankOrderLess(const ChainCandidates& cand, bool use_ip, size_t a,
                     size_t b) {
  const float ka = use_ip ? -cand.partial[a] : cand.partial[a];
  const float kb = use_ip ? -cand.partial[b] : cand.partial[b];
  if (ka != kb) return ka < kb;
  return cand.id[a] < cand.id[b];
}

size_t RerankChainIndices(const ExecContext& ctx, const QueryChain& chain,
                          const ChainCandidates& cand, uint64_t scanned_mask,
                          const size_t* pick, size_t n_pick, bool skip_by_tau,
                          float tau, size_t dist_base, float* dist_out) {
  const ScanKernelTable& kt = *ctx.kernels;
  const bool use_ip = ctx.use_ip;
  const float* qrow = ctx.queries.Row(static_cast<size_t>(chain.query));
  const size_t num_lists = chain.lists.size();
  size_t reranked = 0;
  for (size_t j = 0; j < n_pick; ++j) {
    const size_t i = pick[j];
    if (skip_by_tau) {
      const float lb = use_ip ? -cand.bound[i] : cand.bound[i];
      if (lb > tau) continue;
    }
    // The rank barrier is where tombstones take effect: a deleted row's
    // exact distance is never computed, so its dist stays +inf (both
    // callers pre-fill) and it cannot survive the rerank into any heap.
    if (ctx.IsDeleted(cand.id[i])) continue;
    float acc = 0.0f;
    for (size_t d = 0; d < ctx.b_dim; ++d) {
      if (((scanned_mask >> d) & 1) == 0) continue;
      const DimRange r = ctx.plan->dim_ranges[d];
      const ListSlice* ls =
          cand.slices[d * num_lists + static_cast<size_t>(cand.list[i])];
      const float* row = ls->slice.Row(static_cast<size_t>(cand.row[i]));
      acc += use_ip ? kt.ip_row(qrow + r.begin, row, r.width())
                    : kt.l2_row(qrow + r.begin, row, r.width());
    }
    dist_out[i - dist_base] = use_ip ? -acc : acc;
    ++reranked;
  }
  return reranked;
}

size_t RerankChainCandidates(const ExecContext& ctx, const QueryChain& chain,
                             const ChainCandidates& cand,
                             uint64_t scanned_mask, size_t begin, size_t count,
                             bool skip_by_tau, float tau, float* dist_out) {
  const bool use_ip = ctx.use_ip;
  const float kInf = std::numeric_limits<float>::infinity();
  std::fill(dist_out, dist_out + count, kInf);

  std::vector<size_t> pick(count);
  std::iota(pick.begin(), pick.end(), begin);
  const size_t depth = ctx.opts->rerank_depth;
  if (depth > 0 && depth < count) {
    // Quantized-score order: ADC partial in distance convention, ids break
    // ties — ids are unique within a chain, so the order is strict and
    // total: selecting the best `depth` and sorting only them yields the
    // picks, in the order, a full sort would (hence the same byte bill).
    auto less = [&](size_t a, size_t b) {
      return RerankOrderLess(cand, use_ip, a, b);
    };
    const auto kept = pick.begin() + static_cast<std::ptrdiff_t>(depth);
    std::nth_element(pick.begin(), kept, pick.end(), less);
    pick.resize(depth);
    std::sort(pick.begin(), pick.end(), less);
  }
  return RerankChainIndices(ctx, chain, cand, scanned_mask, pick.data(),
                            pick.size(), skip_by_tau, tau, begin, dist_out);
}

SharedScanBiller::SharedScanBiller(const ExecContext& ctx)
    : ctx_(ctx),
      grouped_(ctx.opts->shared_scans && ctx.routing->num_groups > 0) {}

uint64_t SharedScanBiller::StageBytes(size_t chain_index,
                                      const QueryChain& chain,
                                      const ChainCandidates& cand, size_t d,
                                      size_t begin, size_t survivors,
                                      uint64_t row_bytes) {
  if (!grouped_) return static_cast<uint64_t>(survivors) * row_bytes;
  uint64_t scan_bytes = 0;
  const uint64_t g =
      static_cast<uint64_t>(ctx_.routing->chain_group[chain_index]) & 0xFFFFFF;
  for (size_t j = begin; j < begin + survivors; ++j) {
    const uint64_t row = static_cast<uint64_t>(cand.row[j]);
    const uint64_t gl =
        static_cast<uint64_t>(
            chain.lists[static_cast<size_t>(cand.list[j])]) &
        0xFFFFF;
    const uint64_t key =
        (g << 40) | (uint64_t{d} << 34) | (gl << 14) | ((row / 64) & 0x3FFF);
    uint64_t& mask = streamed_rows_[key];
    const uint64_t bit = uint64_t{1} << (row % 64);
    if ((mask & bit) == 0) {
      mask |= bit;
      scan_bytes += row_bytes;
    }
  }
  return scan_bytes;
}

namespace {

/// The replica a chain's hop into block `d` lands on: the schedule-chosen
/// one on routed runs, replica 0 (the MachineOf owner) otherwise.
size_t HopReplica(const ChainExecState& task, size_t d) {
  return task.sched.replica.empty() ? 0
                                    : static_cast<size_t>(task.sched.replica[d]);
}

}  // namespace

std::shared_ptr<ChainExecState> ChainExecutor::AllocateChain(
    const QueryChain& chain) const {
  auto task = std::make_shared<ChainExecState>();
  task->chain = &chain;
  BuildChainSliceTable(ctx_, chain, &task->cand);
  ReserveChainCandidateArrays(ctx_, chain, &task->cand);
  return task;
}

void ChainExecutor::FillChain(ChainExecState* task) const {
  const QueryChain& chain = *task->chain;
  const auto* prewarmed =
      backend_->PrewarmedIds(static_cast<size_t>(chain.query));
  BuildChainCandidateArrays(ctx_, chain, *prewarmed, &task->cand);
  if (ctx_.use_norms && !task->cand.id.empty()) {
    ComputeQueryBlockNorms(ctx_, chain, &task->cand);
    task->rem_q_sq = task->cand.rem_q_total;
  }
}

void ChainExecutor::FillChains(
    const std::vector<std::shared_ptr<ChainExecState>>& tasks) const {
  const size_t parts = std::min(ctx_.plan->num_machines, tasks.size());
  const auto fill_part = [this, &tasks, parts](size_t part) {
    for (size_t i = part; i < tasks.size(); i += parts) {
      FillChain(tasks[i].get());
    }
  };
  std::mutex mu;
  std::condition_variable cv;
  size_t posted_left = parts > 1 ? parts - 1 : 0;
  for (size_t part = 1; part < parts; ++part) {
    backend_->PostStage(part, [&, part] {
      fill_part(part);
      // Notify under the lock: the waiter cannot return (and destroy the
      // latch) before this task has left it.
      std::lock_guard<std::mutex> lock(mu);
      if (--posted_left == 0) cv.notify_all();
    });
  }
  if (parts > 0) fill_part(0);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return posted_left == 0; });
}

bool ChainExecutor::ApplyGroupMemberLoss(ChainExecState* task) const {
  if (!ctx_.routed) return false;
  const QueryChain& chain = *task->chain;
  task->sched = ComputeChainSchedule(ctx_, chain);
  if (!ctx_.faulty) return false;  // Routed-but-healthy: nothing can be lost.
  const ChainLossSchedule& loss = task->sched;
  ledger_->BookStaticChainLoss(loss, chain.query, ctx_.max_retries);
  if (static_cast<size_t>(std::popcount(loss.lost_mask)) == ctx_.b_dim ||
      loss.result_hop_lost) {
    // The whole shard is unreachable for this query (every block lost, or
    // the result hop can never be delivered): the query completes from its
    // other chains.
    if (loss.result_hop_lost) ledger_->BookLostMessage(ctx_.max_retries);
    ledger_->BookShardLost(chain.query);
    return true;
  }
  task->lost_mask = loss.lost_mask;
  return false;
}

std::vector<size_t> ChainExecutor::MakeGroupOrder(
    size_t anchor_chain_index) const {
  return BuildStaticBlockOrder(ctx_.b_dim, anchor_chain_index,
                               ctx_.opts->enable_pipeline);
}

size_t ChainExecutor::GroupStageMachine(const GroupExecState& group,
                                        size_t d) const {
  // Group members share (probe_rank, shard), hence the replica order and
  // its primary — any member anchors the same machine. The primary is never
  // start-dead while some member still wants the block (all replicas dead
  // would have put the block in every member's lost mask).
  const QueryChain& anchor = *group.members.front()->chain;
  const size_t r = StagePrimaryReplica(ctx_, anchor, d);
  return static_cast<size_t>(
      ctx_.plan->ReplicaOf(static_cast<size_t>(group.shard), d, r));
}

bool ChainExecutor::PostGroupStageFrom(std::shared_ptr<GroupExecState> group,
                                       size_t from) {
  for (size_t next = from; next < group->order.size(); ++next) {
    const size_t nd = group->order[next];
    bool wanted = false;
    for (const auto& m : group->members) {
      if (!m->cand.id.empty() && ((m->lost_mask >> nd) & 1) == 0) {
        wanted = true;
        break;
      }
    }
    if (!wanted) continue;
    group->pos = next;
    const size_t machine = GroupStageMachine(*group, nd);
    backend_->PostStage(machine, [this, group = std::move(group)]() mutable {
      RunGroupStage(std::move(group));
    });
    return true;
  }
  return false;
}

void ChainExecutor::ChargeScanBytes(size_t machine, uint64_t bytes) {
  if (ctx_.use_pq) {
    backend_->ChargeCompressedBytes(machine, bytes);
  } else {
    backend_->ChargeStreamedBytes(machine, bytes);
  }
}

void ChainExecutor::RunGroupStage(std::shared_ptr<GroupExecState> group) {
  const size_t d = group->order[group->pos];
  std::vector<StageMember> members;
  std::vector<ChainExecState*> active;
  members.reserve(group->members.size());
  active.reserve(group->members.size());
  for (const auto& member : group->members) {
    if (member->cand.id.empty()) continue;
    if ((member->lost_mask >> d) & 1) continue;
    const QueryChain& chain = *member->chain;
    if (ctx_.faulty) {
      // Members ride one baton, but each member's hop keeps its own
      // (statically decided) retry bill: the schedule already resolved
      // which replica delivered and at what cost.
      ledger_->BookDelivery(member->sched.attempts[d]);
    }
    StageMember m;
    m.chain = &chain;
    m.cand = &member->cand;
    m.scan = MakeStageScanParams(ctx_, backend_, chain, member->cand, d,
                                 member->processed, member->rem_q_sq);
    members.push_back(std::move(m));
    active.push_back(member.get());
  }

  if (!members.empty()) {
    const size_t machine = GroupStageMachine(*group, d);
    const uint64_t scan_bytes = backend_->ScanStage(ctx_, d, machine, &members);
    ChargeScanBytes(machine, scan_bytes);
    // Hedged stage: the second replica streams the same rows; the loser's
    // bytes are still billed. All active members carry the same
    // (primary-keyed) hedge bit, so reading the first one is well defined.
    const ChainLossSchedule& sched0 = active.front()->sched;
    if (((sched0.hedge_mask >> d) & 1) != 0) {
      ChargeScanBytes(static_cast<size_t>(ctx_.plan->ReplicaOf(
                          static_cast<size_t>(group->shard), d,
                          static_cast<size_t>(sched0.hedge_replica[d]))),
                      scan_bytes);
    }
    for (size_t i = 0; i < active.size(); ++i) {
      ChainExecState* m = active[i];
      const StageScanOutcome& out = members[i].outcome;
      if (!out.delivered) {
        // No replica could serve the block: it is lost and the query runs
        // on degraded (rem_q_sq keeps the block's mass, so the pruning
        // bound stays conservative without it scanned).
        ledger_->BookDynamicHopLoss(m->chain->query, ctx_.max_retries);
        continue;
      }
      ledger_->BookDelivery(out.attempts);
      for (uint32_t f = 0; f < out.failovers; ++f) ledger_->BookFailover();
      if (ctx_.use_norms) m->rem_q_sq -= m->cand.q_block_norm[d];
      ++m->processed;
      m->scanned_mask |= uint64_t{1} << d;
    }
  }

  if (!PostGroupStageFrom(group, group->pos + 1)) FinishGroup(group);
}

void ChainExecutor::MergeChainResults(const ChainExecState& task) {
  const ChainCandidates& cand = task.cand;
  if (!ctx_.use_pq) {
    backend_->WithQueryHeap(task.chain->query, [&](TopKHeap& heap) {
      for (size_t i = 0; i < cand.id.size(); ++i) {
        if (ctx_.IsDeleted(cand.id[i])) continue;  // dead at the rank barrier
        const float dist = ctx_.use_ip ? -cand.partial[i] : cand.partial[i];
        heap.Push(cand.id[i], dist);
      }
    });
    return;
  }
  // Quantized streams: the partials are ADC estimates, so the rank barrier
  // reranks survivors exactly from the float slices before the merge
  // (docs/quantization.md) — the merged distances are then bit-identical to
  // the float path's.
  const QueryChain& chain = *task.chain;
  float tau;
  bool heap_full;
  backend_->ReadThreshold(chain.query, &tau, &heap_full);
  const bool skip_by_tau = ctx_.opts->enable_pruning && heap_full;
  std::vector<float> dist(cand.id.size());
  const size_t reranked =
      RerankChainCandidates(ctx_, chain, cand, task.scanned_mask, 0,
                            cand.id.size(), skip_by_tau, tau, dist.data());
  // The rerank re-reads each reranked candidate's float rows from every
  // block the chain scanned; bill those reads to the replica the block's
  // hop landed on (same attribution as the stage scans).
  if (reranked > 0) {
    const PartitionPlan& plan = *ctx_.plan;
    const size_t shard = static_cast<size_t>(chain.shard);
    for (size_t d = 0; d < ctx_.b_dim; ++d) {
      if (((task.scanned_mask >> d) & 1) == 0) continue;
      backend_->ChargeStreamedBytes(
          static_cast<size_t>(plan.ReplicaOf(shard, d, HopReplica(task, d))),
          static_cast<uint64_t>(reranked) * plan.dim_ranges[d].width() *
              sizeof(float));
    }
  }
  const float kInf = std::numeric_limits<float>::infinity();
  backend_->WithQueryHeap(chain.query, [&](TopKHeap& heap) {
    for (size_t i = 0; i < cand.id.size(); ++i) {
      if (dist[i] == kInf) continue;  // τ-skipped or outside rerank_depth
      heap.Push(cand.id[i], dist[i]);
    }
  });
}

void ChainExecutor::FinishGroup(const std::shared_ptr<GroupExecState>& group) {
  for (const auto& member : group->members) MergeChainResults(*member);
  if (on_chain_done_) {
    for (const auto& member : group->members) {
      on_chain_done_(member->chain->query);
    }
  }
  on_done_();  // the done count is per group baton
}

}  // namespace harmony
