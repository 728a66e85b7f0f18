#include "core/pipeline.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "core/chain_exec.h"
#include "index/distance.h"
#include "util/logging.h"

namespace harmony {

namespace {

constexpr uint64_t kMsgHeaderBytes = 16;

/// Bytes carried per surviving candidate between dimension stages: global
/// id (4-byte local encoding) + accumulated partial; inner-product pruning
/// additionally carries the remaining-norm term.
uint64_t BytesPerCandidate(bool with_norms) {
  return with_norms ? 12 : 8;
}

/// One pipeline batch flowing through the dimension stages — the unit of
/// the discrete-event schedule.
struct BatchTask {
  double ready = 0.0;   // time its input (slice + partials) is available
  uint64_t seq = 0;     // deterministic tie-break
  size_t run = 0;       // index into the rank's ChainRun array
  size_t begin = 0;     // candidate range start
  size_t survivors = 0; // current surviving candidates in the range
  uint64_t queued_ops = 0;  // cost estimate charged to the target queue
  uint64_t remaining = 0;  // bitmask of unprocessed dimension blocks
  size_t processed = 0;    // pipeline position (blocks already done)
  size_t next_block = 0;   // block to execute when popped
  size_t start_block = 0;  // rotation anchor (static stagger)
  int32_t last_machine = -1;  // machine of the last computed block
  // Dimension blocks this batch actually scanned (PQ streams rerank exactly
  // these at the rank barrier; mirrors ChainExecState::scanned_mask).
  uint64_t scanned_mask = 0;
  float rem_q_sq = 0.0f;
  // Completion time of the last executed stage; only read on the lane path
  // (threads_per_node > 1), where the node's serial clock no longer tracks
  // compute.
  double compute_done = 0.0;
};

/// Everything one chain of the current vector-pipeline rank needs while its
/// batches stream through the dimension stages. The candidate arrays, slice
/// table and loss schedule are the shared execution-core structures
/// (core/exec_plan.h, core/chain_exec.h); the arrival times and peak-bytes
/// tracking are simulator-only.
struct ChainRun {
  const QueryChain* chain = nullptr;
  size_t shard = 0;
  std::vector<double> slice_arrival;  // per dimension block
  // Candidate arrays + slice table; pipeline batches own disjoint ranges
  // and compact survivors in place within their range.
  ChainCandidates cand;
  // Static per-hop fault schedule (empty/zero on a healthy run).
  ChainLossSchedule loss;
  std::vector<uint64_t> machine_bytes;  // peak in-flight accounting
  bool contributed = false;  // any batch's results reached the client
  // Quantized streams: the chain's rank barrier. Batches that finish their
  // stages park here until the chain's last batch arrives; the exact float
  // rerank's depth cap is then applied chain-wide (the threaded engine's
  // per-chain policy), not per pipeline batch.
  size_t open_batches = 0;
  std::vector<BatchTask> finals;
};

/// The SimCluster execution substrate: single-threaded over virtual clocks,
/// so heap access is direct, degraded flags are plain bytes, and streamed
/// bytes bill per-worker. The discrete-event loop below orders stages by
/// virtual time itself, so PostStage executes the stage inline (the
/// only time-free reading of "post" a virtual-clock substrate has); the
/// loop uses the backend for state access and accounting, not scheduling.
class SimBackend : public ExecBackend {
 public:
  SimBackend(std::vector<QueryState>* states, std::vector<uint8_t>* degraded,
             SimCluster* cluster)
      : states_(states), degraded_(degraded), cluster_(cluster) {}

  void ReadThreshold(int32_t query, float* tau, bool* heap_full) override {
    QueryState& state = (*states_)[static_cast<size_t>(query)];
    *tau = state.heap.threshold();
    *heap_full = state.heap.full();
  }
  const std::unordered_set<int64_t>* PrewarmedIds(size_t query) override {
    return &(*states_)[query].prewarmed_ids;
  }
  void WithQueryHeap(int32_t query,
                     const std::function<void(TopKHeap&)>& fn) override {
    fn((*states_)[static_cast<size_t>(query)].heap);
  }
  void TagDegraded(int32_t query) override {
    (*degraded_)[static_cast<size_t>(query)] = 1;
  }
  void ChargeStreamedBytes(size_t machine, uint64_t bytes) override {
    cluster_->ChargeStreamedBytes(machine, bytes);
  }
  void ChargeCompressedBytes(size_t machine, uint64_t bytes) override {
    cluster_->ChargeCompressedBytes(machine, bytes);
  }
  void PostStage(size_t /*machine*/, std::function<void()> stage) override {
    stage();
  }

 private:
  std::vector<QueryState>* states_;
  std::vector<uint8_t>* degraded_;
  SimCluster* cluster_;
};

}  // namespace

Result<PipelineOutput> ExecuteSimulated(const IvfIndex& index,
                                        const PartitionPlan& plan,
                                        const std::vector<WorkerStore>& stores,
                                        const PrewarmCache& prewarm,
                                        const BatchRouting& routing,
                                        const DatasetView& queries,
                                        const ExecOptions& opts,
                                        SimCluster* cluster) {
  if (cluster->num_workers() != plan.num_machines) {
    return Status::InvalidArgument("cluster size does not match plan");
  }
  HARMONY_ASSIGN_OR_RETURN(
      ExecContext ctx, MakeExecContext(index, plan, stores, prewarm, routing,
                                       queries, opts));
  ctx.AttachFaults(&cluster->faults());
  const size_t b_dim = ctx.b_dim;
  const size_t num_queries = ctx.num_queries;
  const bool use_ip = ctx.use_ip;
  const bool use_norms = ctx.use_norms;
  const size_t batch_size = std::max<size_t>(1, opts.pipeline_batch);

  PipelineOutput out;
  out.prune.Resize(b_dim);
  out.degraded.assign(num_queries, 0);

  // Fault layer: every branch below is gated on `faulty`, so a run with the
  // default FaultPlan is byte-identical (results and virtual clocks) to the
  // pre-fault-layer engine. All fault *booking* flows through the shared
  // FaultLedger (core/chain_exec.cc), same as the threaded engine.
  const FaultInjector& faults = cluster->faults();
  const bool faulty = ctx.faulty;
  const uint32_t max_retries = ctx.max_retries;
  // Machines whose crash has been *observed* (a baton ran into the dead
  // node): the load-aware block chooser routes around them from then on —
  // per-chain failure detection, no oracle.
  std::vector<uint8_t> machine_dead(plan.num_machines, 0);

  // Replica routing (R > 1, or any fault plan): each chain hop lands on the
  // schedule-chosen replica of its block. With R = 1 every helper below
  // degenerates to MachineOf / the legacy slice-arrival layout, bit for bit.
  const bool routed = ctx.routed;
  const size_t reps = std::max<size_t>(1, ctx.replication);
  NodeHealthTracker health(plan.num_machines);
  ctx.AttachHealth(&health);
  auto hop_replica = [](const ChainRun& run, size_t d) -> size_t {
    return run.loss.replica.empty()
               ? 0
               : static_cast<size_t>(run.loss.replica[d]);
  };
  auto block_machine_of = [&](const ChainRun& run, size_t d) -> size_t {
    return static_cast<size_t>(
        plan.ReplicaOf(run.shard, d, hop_replica(run, d)));
  };
  // Query slices are broadcast to every replica of a block; a hop reads the
  // arrival at the replica it actually lands on.
  auto slice_at = [&](const ChainRun& run, size_t d) -> double {
    return run.slice_arrival[d * reps + hop_replica(run, d)];
  };

  // Intra-node parallelism: threads_per_node > 1 switches every worker to
  // lane-scheduled compute (SimNode::ChargeComputeAt). At 1 the workers
  // keep the historical single-clock path and every charge below is
  // bit-identical to it. Configured unconditionally so a reused cluster
  // drops stale lanes.
  for (size_t m = 0; m < plan.num_machines; ++m) {
    cluster->worker(m).ConfigureLanes(opts.threads_per_node);
  }

  std::vector<QueryState> states;
  states.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) states.emplace_back(opts.k);

  SimBackend backend(&states, &out.degraded, cluster);
  FaultLedger ledger(&backend);
  SharedScanBiller biller(ctx);

  SimNode& client = cluster->client();

  // --- Stage 0: centroid assignment + prewarm (Algorithm 1, PrewarmHeap).
  // The client scores its cached sample of each probed list, seeding every
  // query's heap with a sound threshold; ops bill in PrewarmQuery's stated
  // order.
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& state = states[q];
    PrewarmQuery(ctx, q, &state.heap, &state.prewarmed_ids,
                 [&](uint64_t ops) { client.ChargeCompute(ops); });
    state.ready_time = client.clock();
  }

  // Per-(machine, vector-stage) in-flight intermediate bytes, for the peak
  // query-memory table: chains of the same probe rank are concurrent, and
  // within a chain one pipeline batch is in flight per machine.
  std::vector<std::vector<uint64_t>> stage_bytes(
      plan.num_machines,
      std::vector<uint64_t>(routing.max_probe_rank + 1, 0));

  const double client_ops_per_sec = client.ops_per_sec();
  uint64_t total_merge_ops = 0;
  double last_merge_done = 0.0;
  uint64_t chain_seq = 0;

  // --- Vector pipeline, one probe rank at a time (Figure 5(a)): the client
  // dispatches every chain of the rank, then the rank's pipeline batches
  // execute as a discrete-event schedule over the machines' virtual clocks.
  // Later ranks inherit every earlier rank's tightened thresholds.
  size_t rank_begin = 0;
  while (rank_begin < routing.chains.size()) {
    size_t rank_end = rank_begin;
    const int32_t rank = routing.chains[rank_begin].probe_rank;
    while (rank_end < routing.chains.size() &&
           routing.chains[rank_end].probe_rank == rank) {
      ++rank_end;
    }

    // Queries whose previous rank finished early dispatch first; only
    // per-query causality is enforced across ranks.
    std::vector<size_t> rank_order(rank_end - rank_begin);
    std::iota(rank_order.begin(), rank_order.end(), rank_begin);
    std::stable_sort(rank_order.begin(), rank_order.end(),
                     [&](size_t a, size_t b) {
                       const double ra =
                           states[static_cast<size_t>(routing.chains[a].query)]
                               .ready_time;
                       const double rb =
                           states[static_cast<size_t>(routing.chains[b].query)]
                               .ready_time;
                       return ra < rb;
                     });

    // ---- Pass A: client dispatch + chain materialization (candidate build
    // and loss schedule via the shared execution core; the query-slice
    // transfers and their virtual-time arrivals are simulator glue).
    std::vector<ChainRun> runs;
    runs.reserve(rank_order.size());
    for (const size_t c : rank_order) {
      const QueryChain& chain = routing.chains[c];
      QueryState& state = states[static_cast<size_t>(chain.query)];
      const size_t shard = static_cast<size_t>(chain.shard);

      ChainRun run;
      run.chain = &chain;
      run.shard = shard;
      run.machine_bytes.assign(plan.num_machines, 0);

      client.WaitUntil(state.ready_time);
      if (use_norms) {
        ComputeQueryBlockNorms(ctx, chain, &run.cand);
        client.ChargeCompute(DistanceOpCost(ctx.dim));
      }
      run.slice_arrival.resize(b_dim * reps);
      for (size_t d = 0; d < b_dim; ++d) {
        const uint64_t bytes =
            plan.dim_ranges[d].width() * sizeof(float) + kMsgHeaderBytes;
        for (size_t rr = 0; rr < reps; ++rr) {
          const size_t machine =
              static_cast<size_t>(plan.ReplicaOf(shard, d, rr));
          run.slice_arrival[d * reps + rr] =
              cluster->Transfer(&client, &cluster->worker(machine), bytes);
        }
      }

      BuildChainSliceTable(ctx, chain, &run.cand);
      BuildChainCandidateArrays(ctx, chain, state.prewarmed_ids, &run.cand);
      out.prune.total_candidates += run.cand.id.size();

      if (routed && !run.cand.id.empty()) {
        // Schedule whenever replica routing is active (the walk picks each
        // hop's replica even on a healthy replicated run); book only under
        // faults. Chains with nothing to scan skip the schedule entirely so
        // the health tracker sees exactly the chains the threaded engine
        // feeds it (RunChainBatch skips those before their schedule runs).
        run.loss = ComputeChainSchedule(ctx, chain);
        if (faulty) {
          ledger.BookStaticChainLoss(run.loss, chain.query, max_retries);
        }
      }
      runs.push_back(std::move(run));
    }

    // ---- Pass B: discrete-event schedule of the rank's pipeline batches.
    // Each machine owns a pending min-heap (by readiness) plus per-position
    // "available" FIFO buckets of tasks whose inputs have arrived. A free
    // machine always executes the *deepest-position* available task
    // (depth-first draining): a worker that just received stage-p partials
    // processes them before the pile of stage-0 work queued behind them.
    // This is what lets completed batches refine the pruning threshold
    // while sibling batches are still queued — with plain FIFO, every
    // stage-0 task of a dispatched batch would run against the cold prewarm
    // threshold.
    struct ReadyLater {
      bool operator()(const BatchTask& a, const BatchTask& b) const {
        if (a.ready != b.ready) return a.ready > b.ready;
        return a.seq > b.seq;
      }
    };
    struct MachineQueue {
      std::priority_queue<BatchTask, std::vector<BatchTask>, ReadyLater>
          pending;
      std::vector<std::deque<BatchTask>> available;  // per pipeline position
      size_t available_count = 0;

      void Promote(double now) {
        while (!pending.empty() && pending.top().ready <= now) {
          const BatchTask& t = pending.top();
          available[t.processed].push_back(t);
          ++available_count;
          pending.pop();
        }
      }
      BatchTask PopDeepest() {
        for (size_t p = available.size(); p-- > 0;) {
          if (!available[p].empty()) {
            BatchTask t = available[p].front();
            available[p].pop_front();
            --available_count;
            return t;
          }
        }
        HARMONY_CHECK_MSG(false, "PopDeepest on empty queue");
        return BatchTask{};
      }
    };
    std::vector<MachineQueue> machine_queues(plan.num_machines);
    for (auto& mq : machine_queues) mq.available.resize(b_dim);
    // Estimated ops sitting in each machine's queue; the load metric below
    // is executed busy time *plus* queued work, so seeding thousands of
    // batches up front still spreads them.
    std::vector<uint64_t> queued_ops(plan.num_machines, 0);
    size_t outstanding = 0;
    uint64_t seq = 0;

    // The load metric fed to the shared load-aware block chooser
    // (ChooseLoadAwareBlock): executed busy time plus queued work.
    const std::function<double(size_t)> machine_load = [&](size_t machine) {
      const SimNode& worker = cluster->worker(machine);
      return worker.compute_seconds() + worker.comm_seconds() +
             static_cast<double>(queued_ops[machine]) / worker.ops_per_sec();
    };
    auto choose_block = [&](const ChainRun& run, uint64_t remaining) {
      return ChooseLoadAwareBlock(
          plan, b_dim, remaining, faulty, machine_dead.data(),
          [&](size_t cand) { return block_machine_of(run, cand); },
          machine_load);
    };

    // Critical-path cost of a message's failed delivery attempts; the
    // resends book on the shared ledger.
    auto retry_penalty = [&](uint64_t bytes, uint32_t attempts_used) {
      return RetryPenaltySeconds(cluster->network(), &ledger, bytes,
                                 attempts_used);
    };

    // Last stage of a batch: local top-K selection at the last machine that
    // computed a block, result hop to the client, client-side merge. Under
    // PQ streams the caller supplies the batch's exact-rerank distances
    // (computed at the chain's rank barrier below); `rerank` is unused on
    // the float path.
    auto deliver_batch = [&](BatchTask& task, ChainRun& run,
                             const std::vector<float>& rerank,
                             size_t reranked) {
      QueryState& state = states[static_cast<size_t>(run.chain->query)];
      SimNode& node = cluster->worker(static_cast<size_t>(task.last_machine));
      // Lane path: the result send and selection pass happen after the
      // stage's lane-scheduled compute finished, not after the serial clock
      // (which no longer tracks compute).
      if (node.has_lanes()) node.WaitUntil(task.compute_done);
      TopKHeap local(opts.k);
      double result_arrival;
      uint64_t result_bytes = kMsgHeaderBytes;
      if (task.survivors > 0) {
        const float tau_final = state.heap.threshold();
        if (ctx.use_pq && reranked > 0) {
          uint64_t rerank_ops = 0;
          for (size_t rd = 0; rd < b_dim; ++rd) {
            if (((task.scanned_mask >> rd) & 1) == 0) continue;
            const size_t width = plan.dim_ranges[rd].width();
            // The float rows are re-read on the machines that hold them.
            backend.ChargeStreamedBytes(
                block_machine_of(run, rd),
                static_cast<uint64_t>(reranked) * width * sizeof(float));
            rerank_ops += static_cast<uint64_t>(reranked) *
                          DistanceOpCost(width);
          }
          node.ChargeCompute(rerank_ops);
        }
        const float kInf = std::numeric_limits<float>::infinity();
        for (size_t i = task.begin; i < task.begin + task.survivors; ++i) {
          const float dist =
              ctx.use_pq
                  ? rerank[i - task.begin]
                  : (use_ip ? -run.cand.partial[i] : run.cand.partial[i]);
          if (ctx.use_pq && dist == kInf) continue;  // τ-skip / depth cap
          // Non-PQ rank barrier: drop tombstoned rows here (the PQ path
          // already dropped them in the rerank — their dist stayed +inf).
          if (!ctx.use_pq && ctx.IsDeleted(run.cand.id[i])) continue;
          if (dist < tau_final || !state.heap.full()) {
            local.Push(run.cand.id[i], dist);
          }
        }
        node.ChargeCompute(task.survivors);  // Selection pass.
        result_bytes = local.size() * 8 + kMsgHeaderBytes;
        result_arrival = cluster->Transfer(&node, &client, result_bytes);
      } else {
        // Everything pruned; notify the client with an empty message.
        result_arrival = cluster->Transfer(&node, &client, result_bytes);
      }
      if (faulty && run.loss.attempts[b_dim] == 0) {
        // The result message and every resend of it died in flight: the
        // worker paid for the send but the client never merges.
        ledger.BookLostMessage(max_retries);
        return;
      }
      if (faulty && run.loss.attempts[b_dim] > 1) {
        result_arrival +=
            retry_penalty(result_bytes, run.loss.attempts[b_dim]);
      }
      run.contributed = true;

      // Client merge: merges of different queries proceed concurrently on
      // the (many-core) client; only per-query ordering is enforced, so a
      // straggling batch never blocks other queries' progress.
      const double merge_ready = std::max(result_arrival, state.ready_time);
      const uint64_t merge_ops = local.size() + 1;
      const double merge_done =
          merge_ready + static_cast<double>(merge_ops) / client_ops_per_sec;
      total_merge_ops += merge_ops;
      state.ready_time = merge_done;
      last_merge_done = std::max(last_merge_done, merge_done);
      for (const Neighbor& n : local.SortedResults()) {
        state.heap.Push(n.id, n.distance);
      }
    };

    // Rank barrier of one chain under PQ streams: the exact rerank's depth
    // cap is chosen chain-wide over every batch's ADC survivors — the same
    // per-chain policy the threaded engine applies in MergeChainResults —
    // then each batch reranks its own picks over exactly the blocks it
    // scanned (fault-divergent masks stay per batch) before selecting and
    // shipping its results in deterministic completion order.
    auto finalize_chain = [&](ChainRun& run) {
      QueryState& state = states[static_cast<size_t>(run.chain->query)];
      std::vector<std::pair<size_t, size_t>> picked;  // (candidate, batch)
      for (size_t b = 0; b < run.finals.size(); ++b) {
        const BatchTask& t = run.finals[b];
        for (size_t i = t.begin; i < t.begin + t.survivors; ++i) {
          picked.emplace_back(i, b);
        }
      }
      if (opts.rerank_depth > 0 && opts.rerank_depth < picked.size()) {
        // Selection, not a sort: the order is strict and total, and each
        // batch re-sorts its own picks by index below.
        std::nth_element(
            picked.begin(),
            picked.begin() + static_cast<std::ptrdiff_t>(opts.rerank_depth),
            picked.end(),
            [&](const std::pair<size_t, size_t>& a,
                const std::pair<size_t, size_t>& b) {
              return RerankOrderLess(run.cand, use_ip, a.first, b.first);
            });
        picked.resize(opts.rerank_depth);
      }
      std::vector<size_t> pick;
      std::vector<float> rerank;
      for (size_t b = 0; b < run.finals.size(); ++b) {
        BatchTask& t = run.finals[b];
        pick.clear();
        for (const auto& pc : picked) {
          if (pc.second == b) pick.push_back(pc.first);
        }
        std::sort(pick.begin(), pick.end());
        rerank.assign(t.survivors, std::numeric_limits<float>::infinity());
        size_t reranked = 0;
        if (!pick.empty()) {
          const bool skip_by_tau = opts.enable_pruning && state.heap.full();
          reranked = RerankChainIndices(
              ctx, *run.chain, run.cand, t.scanned_mask, pick.data(),
              pick.size(), skip_by_tau, state.heap.threshold(), t.begin,
              rerank.data());
        }
        deliver_batch(t, run, rerank, reranked);
      }
      run.finals.clear();
    };

    // Landing point of every finished (or fully degraded) batch.
    auto finalize_batch = [&](BatchTask& task, ChainRun& run) {
      const bool dead = task.processed == 0 || task.last_machine < 0;
      if (!ctx.use_pq) {
        // Every block was lost before the first stage could run: the batch
        // contributes nothing and the client hears nothing.
        if (dead) return;
        deliver_batch(task, run, std::vector<float>(), 0);
        return;
      }
      // Quantized streams: park the batch at the chain's rank barrier; the
      // chain delivers once its last batch lands.
      if (!dead) run.finals.push_back(task);
      HARMONY_CHECK(run.open_batches > 0);
      if (--run.open_batches == 0) finalize_chain(run);
    };

    // The hop into task.next_block was lost (dead machine): remove the
    // block from the chain, book the loss, and route the baton to the next
    // surviving block — or finalize from wherever it last computed.
    auto fail_over = [&](BatchTask task, double detect_time) {
      ChainRun& run = runs[task.run];
      const size_t d = task.next_block;
      const bool first_loss = (run.loss.lost_mask & (uint64_t{1} << d)) == 0;
      run.loss.lost_mask |= uint64_t{1} << d;
      ledger.BookObservedBlockLoss(run.chain->query, first_loss,
                                   !run.cand.id.empty());
      task.remaining &= ~run.loss.lost_mask;
      if (task.remaining != 0) {
        size_t next = b_dim;
        if (opts.enable_pipeline && opts.dynamic_dim_order) {
          next = choose_block(run, task.remaining);
        } else {
          next = NextCyclicBlock(task.start_block, task.processed, b_dim,
                                 task.remaining);
        }
        HARMONY_CHECK(next < b_dim);
        const uint64_t bytes =
            task.survivors * BytesPerCandidate(use_norms) + kMsgHeaderBytes;
        task.next_block = next;
        task.ready = std::max(detect_time, slice_at(run, next));
        if (run.loss.attempts[next] > 1) {
          task.ready += retry_penalty(bytes, run.loss.attempts[next]);
        }
        task.seq = seq++;
        task.queued_ops = static_cast<uint64_t>(task.survivors) *
                          plan.dim_ranges[next].width();
        const size_t next_machine = block_machine_of(run, next);
        queued_ops[next_machine] += task.queued_ops;
        machine_queues[next_machine].pending.push(task);
        ++outstanding;
        return;
      }
      finalize_batch(task, run);
    };

    // Mid-run crash failover: the hop's target died under the baton. Try
    // the surviving replicas further down the stage's preference order
    // before giving the block up; re-pointing the chain's schedule means
    // sibling batches of the same chain reroute when they pop. Returns
    // false when no surviving replica's coin stream delivers (the caller
    // then degrades via fail_over, as an unreplicated run would).
    auto reroute_replica = [&](BatchTask task, ChainRun& run,
                               double detect_time) -> bool {
      const size_t d = task.next_block;
      std::vector<uint8_t> order;
      StageReplicaOrder(ctx, *run.chain, d, &order);
      const size_t cur = hop_replica(run, d);
      size_t pos = 0;
      while (pos < order.size() && order[pos] != cur) ++pos;
      for (size_t i = pos + 1; i < order.size(); ++i) {
        const size_t r2 = order[i];
        const size_t m2 =
            static_cast<size_t>(plan.ReplicaOf(run.shard, d, r2));
        if (machine_dead[m2] || faults.CrashedFromStart(m2)) continue;
        const uint32_t att = faults.DeliveryAttempts(
            ReplicaHopKey(run.chain->query, run.chain->shard, d, r2),
            max_retries);
        if (att == 0) {
          ledger.BookLostMessage(max_retries);
          continue;
        }
        run.loss.replica[d] = static_cast<uint8_t>(r2);
        run.loss.attempts[d] = att;
        ledger.BookFailover();
        const uint64_t bytes =
            task.survivors * BytesPerCandidate(use_norms) + kMsgHeaderBytes;
        task.ready = std::max(detect_time, slice_at(run, d));
        if (att > 1) task.ready += retry_penalty(bytes, att);
        task.seq = seq++;
        task.queued_ops = static_cast<uint64_t>(task.survivors) *
                          plan.dim_ranges[d].width();
        queued_ops[m2] += task.queued_ops;
        machine_queues[m2].pending.push(task);
        ++outstanding;
        return true;
      }
      return false;
    };

    // Seed every chain's pipeline batches.
    for (size_t r = 0; r < runs.size(); ++r, ++chain_seq) {
      ChainRun& run = runs[r];
      const size_t total = run.cand.id.size();
      const uint64_t all_blocks =
          b_dim == 64 ? ~uint64_t{0} : ((uint64_t{1} << b_dim) - 1);
      const uint64_t usable_blocks = all_blocks & ~run.loss.lost_mask;
      if (total == 0 || usable_blocks == 0) {
        // Nothing to scan (all candidates prewarmed), or every dimension
        // block of the shard is lost: still sequence the query so later
        // ranks may proceed. A fully lost shard degrades the query; the
        // rank-end sweep books it as shards_lost.
        QueryState& state = states[static_cast<size_t>(run.chain->query)];
        state.ready_time = std::max(state.ready_time, client.clock());
        if (total > 0) ledger.TagDegraded(run.chain->query);
        continue;
      }
      size_t batch_idx = 0;
      for (size_t begin = 0; begin < total; begin += batch_size, ++batch_idx) {
        BatchTask task;
        task.run = r;
        task.begin = begin;
        task.survivors = std::min(batch_size, total - begin);
        task.remaining = usable_blocks;
        task.processed = 0;
        // Static stagger: consecutive batches/chains start on different
        // machines; the dynamic choice refines later blocks as busy
        // counters evolve.
        task.start_block = InitialStartBlock(
            opts.enable_pipeline, chain_seq + batch_idx, b_dim, usable_blocks);
        if (opts.enable_pipeline && opts.dynamic_dim_order && b_dim > 1) {
          const size_t chosen = choose_block(run, task.remaining);
          if (chosen < b_dim) task.start_block = chosen;
        }
        task.next_block = task.start_block;
        task.rem_q_sq = run.cand.rem_q_total;
        task.ready = slice_at(run, task.next_block);
        if (faulty && run.loss.attempts[task.next_block] > 1) {
          task.ready += retry_penalty(
              plan.dim_ranges[task.next_block].width() * sizeof(float) +
                  kMsgHeaderBytes,
              run.loss.attempts[task.next_block]);
        }
        task.seq = seq++;
        task.queued_ops = static_cast<uint64_t>(task.survivors) *
                          plan.dim_ranges[task.next_block].width();
        const size_t seed_machine = block_machine_of(run, task.next_block);
        queued_ops[seed_machine] += task.queued_ops;
        machine_queues[seed_machine].pending.push(task);
        if (ctx.use_pq) ++run.open_batches;
        ++outstanding;
      }
    }

    while (outstanding > 0) {
      // Pick the machine that can start work earliest: its clock if it has
      // available work, else the arrival of its next pending input.
      size_t exec_machine = plan.num_machines;
      double exec_start = 0.0;
      for (size_t m = 0; m < plan.num_machines; ++m) {
        MachineQueue& mq = machine_queues[m];
        // next_free() == clock() without lanes; with lanes it is the
        // least-loaded lane, letting a node take overlapping work.
        mq.Promote(cluster->worker(m).next_free());
        double start;
        if (mq.available_count > 0) {
          start = cluster->worker(m).next_free();
        } else if (!mq.pending.empty()) {
          start =
              std::max(cluster->worker(m).next_free(), mq.pending.top().ready);
        } else {
          continue;
        }
        if (exec_machine == plan.num_machines || start < exec_start) {
          exec_machine = m;
          exec_start = start;
        }
      }
      HARMONY_CHECK(exec_machine < plan.num_machines);
      MachineQueue& mq = machine_queues[exec_machine];
      mq.Promote(exec_start);
      BatchTask task = mq.PopDeepest();
      --outstanding;
      queued_ops[exec_machine] -= std::min(queued_ops[exec_machine],
                                           task.queued_ops);
      ChainRun& run = runs[task.run];
      const QueryChain& chain = *run.chain;
      const size_t d = task.next_block;
      const DimRange range = plan.dim_ranges[d];
      const size_t machine = block_machine_of(run, d);
      SimNode& node = cluster->worker(machine);
      if (faulty) {
        const double hop_start =
            std::max({node.next_free(), task.ready, slice_at(run, d)});
        if (hop_start >= faults.CrashTime(machine)) {
          // The target died before this baton could execute: the sender
          // burns its full retry budget discovering that, then fails over
          // to a surviving replica of the same block — or, with none left
          // (or failover off), routes around the dead machine block-wise.
          machine_dead[machine] = 1;
          health.RecordDead(machine);
          const uint64_t bytes =
              task.survivors * BytesPerCandidate(use_norms) + kMsgHeaderBytes;
          const double detect =
              hop_start +
              cluster->network().RetryBackoffSeconds(bytes, max_retries);
          ledger.BookLostMessage(max_retries);
          if (routed && reps > 1 && opts.enable_failover &&
              reroute_replica(task, run, detect)) {
            continue;
          }
          fail_over(task, detect);
          continue;
        }
      }
      const double scan_ready = std::max(task.ready, slice_at(run, d));
      if (!node.has_lanes()) node.WaitUntil(scan_ready);

      const BlockScanParams scan = MakeStageScanParams(
          ctx, &backend, chain, run.cand, d, task.processed, task.rem_q_sq);

      BlockScanCounters counters;
      const size_t w = ScanBlock(
          scan, task.begin, task.survivors, run.cand.id.data(),
          run.cand.list.data(), run.cand.row.data(), run.cand.partial.data(),
          use_norms ? run.cand.rem_p_sq.data() : nullptr,
          ctx.use_pq ? run.cand.bound.data() : nullptr, &counters);
      task.scanned_mask |= uint64_t{1} << d;
      out.prune.dropped_after[task.processed > 0 ? task.processed - 1 : 0] +=
          counters.dropped;
      if (node.has_lanes()) {
        task.compute_done = node.ChargeComputeAt(scan_ready, counters.ops);
        // Batons and result sends leave via the node's serial (NIC) clock;
        // advance it to this stage's completion so they depart after it.
        node.WaitUntil(task.compute_done);
      } else {
        node.ChargeCompute(counters.ops);
        task.compute_done = node.clock();
      }

      // Hedged stage: the straggling primary's scan was also dispatched to
      // a second replica, which performs the identical work on its own
      // clock; the stage completes at the earlier of the two and the baton
      // departs from the winner. Ties go to the primary. The loser's ops
      // and bytes are still billed — hedging buys latency with work.
      size_t stage_machine = machine;
      const bool hedged = faulty && ((run.loss.hedge_mask >> d) & 1) != 0;
      size_t hedge_machine = machine;
      if (hedged) {
        const size_t hr = static_cast<size_t>(run.loss.hedge_replica[d]);
        hedge_machine = static_cast<size_t>(plan.ReplicaOf(run.shard, d, hr));
        SimNode& hnode = cluster->worker(hedge_machine);
        const double hedge_ready =
            std::max(task.ready, run.slice_arrival[d * reps + hr]);
        double hedge_done;
        if (hnode.has_lanes()) {
          hedge_done = hnode.ChargeComputeAt(hedge_ready, counters.ops);
        } else {
          hnode.WaitUntil(hedge_ready);
          hnode.ChargeCompute(counters.ops);
          hedge_done = hnode.clock();
        }
        if (hedge_done < task.compute_done) {
          task.compute_done = hedge_done;
          stage_machine = hedge_machine;
        }
      }

      // Streamed-bytes accounting (counters only — scheduling above never
      // reads it): per-survivor rows ungrouped, group-union billing with
      // shared scans on (SharedScanBiller). A hedged stage bills the same
      // rows again on the hedge replica.
      {
        const size_t chain_idx =
            static_cast<size_t>(run.chain - routing.chains.data());
        const uint64_t row_bytes =
            ctx.use_pq ? scan.code_size : range.width() * sizeof(float);
        const uint64_t scan_bytes = biller.StageBytes(
            chain_idx, chain, run.cand, d, task.begin, w, row_bytes);
        if (ctx.use_pq) {
          backend.ChargeCompressedBytes(machine, scan_bytes);
          if (hedged) backend.ChargeCompressedBytes(hedge_machine, scan_bytes);
        } else {
          backend.ChargeStreamedBytes(machine, scan_bytes);
          if (hedged) backend.ChargeStreamedBytes(hedge_machine, scan_bytes);
        }
      }
      if (use_norms) task.rem_q_sq -= run.cand.q_block_norm[d];
      task.remaining &= ~(uint64_t{1} << d);
      ++task.processed;
      task.survivors = w;
      task.last_machine = static_cast<int32_t>(stage_machine);
      if (faulty) {
        // Another batch of this chain may have discovered crash-lost blocks
        // in the meantime; don't hop into a known-dead block.
        task.remaining &= ~run.loss.lost_mask;
      }

      const uint64_t stage_footprint =
          w * BytesPerCandidate(use_norms) + range.width() * sizeof(float);
      run.machine_bytes[machine] =
          std::max(run.machine_bytes[machine], stage_footprint);
      if (hedged) {
        // The hedge replica held the same candidates and slice.
        run.machine_bytes[hedge_machine] =
            std::max(run.machine_bytes[hedge_machine], stage_footprint);
      }

      if (task.survivors > 0 && task.remaining != 0) {
        // Choose the next block: with load-aware dynamic ordering, the
        // least-busy remaining machine goes next — equivalently, blocks of
        // currently overloaded machines are deferred to late positions
        // where pruning has removed most candidates (Section 4.3, "Load
        // Balancing Strategies").
        size_t next = b_dim;  // sentinel
        if (opts.enable_pipeline && opts.dynamic_dim_order) {
          next = choose_block(run, task.remaining);
        } else {
          // Cyclic order from the stagger anchor.
          next = NextCyclicBlock(task.start_block, task.processed, b_dim,
                                 task.remaining);
        }
        HARMONY_CHECK(next < b_dim);
        task.next_block = next;
        const size_t next_machine = block_machine_of(run, next);
        const uint64_t bytes =
            task.survivors * BytesPerCandidate(use_norms) + kMsgHeaderBytes;
        // The baton departs from the stage winner (the hedge replica when
        // it beat the primary); on the lane path its serial (NIC) clock
        // must first catch up to the stage completion.
        SimNode& from = cluster->worker(static_cast<size_t>(task.last_machine));
        if (from.has_lanes()) from.WaitUntil(task.compute_done);
        double arrival =
            cluster->Transfer(&from, &cluster->worker(next_machine), bytes);
        if (faulty && run.loss.attempts[next] > 1) {
          arrival += retry_penalty(bytes, run.loss.attempts[next]);
        }
        task.ready = std::max(arrival, slice_at(run, next));
        task.seq = seq++;
        task.queued_ops = static_cast<uint64_t>(task.survivors) *
                          plan.dim_ranges[next].width();
        queued_ops[next_machine] += task.queued_ops;
        machine_queues[next_machine].pending.push(task);
        ++outstanding;
        continue;
      }

      // Final stage of this batch: local top-K selection before shipping —
      // only candidates that can still enter the query's top-K travel to
      // the client (vector-partitioned chains therefore return at most K
      // results, matching the paper's low vector-mode communication).
      finalize_batch(task, run);
    }

    // Any chain that got candidates but never landed a result at the client
    // lost its whole vector shard for this query.
    if (faulty) {
      for (const ChainRun& run : runs) {
        if (run.cand.id.empty() || run.contributed) continue;
        ledger.BookShardLost(run.chain->query);
      }
    }

    for (const ChainRun& run : runs) {
      for (size_t m = 0; m < plan.num_machines; ++m) {
        stage_bytes[m][static_cast<size_t>(run.chain->probe_rank)] +=
            run.machine_bytes[m];
      }
    }
    // Rank barrier: fold this rank's health observations so the next rank's
    // replica selection reads the same epoch state as the threaded engine.
    health.FoldEpoch();
    rank_begin = rank_end;
  }

  // Account the (parallel) merge work on the client and advance its clock
  // to the last merge completion so the makespan covers result assembly.
  client.ChargeCompute(total_merge_ops);
  client.WaitUntil(last_merge_done);

  // --- Collect results, per-query latencies and the peak-memory figure.
  out.faults = ledger.Snapshot();
  out.results.resize(num_queries);
  out.query_completion_seconds.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    out.results[q] = states[q].heap.SortedResults();
    out.query_completion_seconds[q] = states[q].ready_time;
  }
  for (size_t m = 0; m < plan.num_machines; ++m) {
    for (const uint64_t bytes : stage_bytes[m]) {
      out.peak_intermediate_bytes =
          std::max(out.peak_intermediate_bytes, bytes);
    }
  }
  for (const uint8_t flag : out.degraded) {
    if (flag != 0) ++out.faults.degraded_queries;
  }
  return out;
}

}  // namespace harmony
