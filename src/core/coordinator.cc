#include "core/coordinator.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/logging.h"
#include "util/timer.h"

namespace harmony {

/// Mutable per-query state shared across threads; the mutex guards the heap
/// (pruning threshold reads and result merges).
struct ChainBatchBackend::QueryState {
  explicit QueryState(size_t k) : heap(k) {}
  std::mutex mu;
  TopKHeap heap;
  std::unordered_set<int64_t> prewarmed_ids;
  /// Set (never cleared) when any of the query's chains lost a block or a
  /// whole shard; read after the final barrier.
  std::atomic<bool> degraded{false};
  /// Chains of this query not yet finished (counted over the whole batch at
  /// dispatch-preparation time; chains the client skips are decremented by
  /// the client, executed chains by the worker that merges them last).
  std::atomic<int64_t> chains_left{0};
  /// Real completion stamp (seconds since batch start), written exactly once
  /// when chains_left hits zero, by whichever thread merged the query's
  /// last chain; -1 while in flight.
  std::atomic<double> done_seconds{-1.0};
};

ChainBatchBackend::ChainBatchBackend() = default;
ChainBatchBackend::~ChainBatchBackend() = default;

void ChainBatchBackend::ReadThreshold(int32_t query, float* tau,
                                      bool* heap_full) {
  QueryState& state = *states_[static_cast<size_t>(query)];
  std::lock_guard<std::mutex> lock(state.mu);
  *tau = state.heap.threshold();
  *heap_full = state.heap.full();
}

const std::unordered_set<int64_t>* ChainBatchBackend::PrewarmedIds(
    size_t query) {
  return &states_[query]->prewarmed_ids;
}

void ChainBatchBackend::WithQueryHeap(
    int32_t query, const std::function<void(TopKHeap&)>& fn) {
  QueryState& state = *states_[static_cast<size_t>(query)];
  std::lock_guard<std::mutex> lock(state.mu);
  fn(state.heap);
}

void ChainBatchBackend::TagDegraded(int32_t query) {
  states_[static_cast<size_t>(query)]->degraded.store(
      true, std::memory_order_relaxed);
}

void ChainBatchBackend::ChargeStreamedBytes(size_t /*machine*/,
                                            uint64_t bytes) {
  bytes_streamed_.fetch_add(bytes, std::memory_order_relaxed);
}

void ChainBatchBackend::ChargeCompressedBytes(size_t /*machine*/,
                                              uint64_t bytes) {
  bytes_streamed_.fetch_add(bytes, std::memory_order_relaxed);
  bytes_compressed_.fetch_add(bytes, std::memory_order_relaxed);
}

namespace {

/// The ThreadedCluster execution substrate: stages are continuations posted
/// into per-node thread pools.
class ThreadedBackend final : public ChainBatchBackend {
 public:
  void Open(ExecContext* ctx) override {
    cluster_ = std::make_unique<ThreadedCluster>(
        ctx->plan->num_machines, ctx->opts->faults,
        ctx->opts->threads_per_node);
    ctx->AttachFaults(&cluster_->faults());
  }
  /// Joins the node pools: every task still running finishes first,
  /// including on the timeout early-returns.
  void Close() override { cluster_.reset(); }

  void PostStage(size_t machine, std::function<void()> stage) override {
    cluster_->Post(machine, std::move(stage));
  }

 private:
  std::unique_ptr<ThreadedCluster> cluster_;
};

}  // namespace

Result<ThreadedOutput> RunChainBatch(
    const IvfIndex& index, const PartitionPlan& plan,
    const std::vector<WorkerStore>& stores, const PrewarmCache& prewarm,
    const BatchRouting& routing, const DatasetView& queries,
    const ExecOptions& opts, bool allow_groups, ChainBatchBackend* backend) {
  using QueryState = ChainBatchBackend::QueryState;
  if (stores.size() != plan.num_machines) {
    return Status::InvalidArgument("store count does not match plan");
  }
  StopWatch watch;
  HARMONY_ASSIGN_OR_RETURN(
      ExecContext ctx, MakeExecContext(index, plan, stores, prewarm, routing,
                                       queries, opts));

  std::vector<std::unique_ptr<QueryState>>& states = backend->states_;
  HARMONY_CHECK_MSG(states.empty(), "a ChainBatchBackend runs one batch");
  states.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    states.push_back(std::make_unique<QueryState>(opts.k));
  }
  // Per-query chain budget: every routed chain is either executed through
  // the ChainExecutor (which then reports it via on_chain_done) or skipped
  // on the client (decremented inline below); either way the count reaches
  // zero exactly when the query's last chain is accounted for.
  for (const QueryChain& chain : routing.chains) {
    states[static_cast<size_t>(chain.query)]->chains_left.fetch_add(
        1, std::memory_order_relaxed);
  }

  // Node-health tracker: fed by the chain schedules (and, over sockets, by
  // the stage RPCs) on the client thread, folded at each rank barrier so
  // replica selection sees the same quarantine flags in every engine.
  // Declared before the substrate opens, so any stage still draining
  // outlives nothing it touches.
  NodeHealthTracker health(plan.num_machines);
  ctx.AttachHealth(&health);

  // Prewarm on the client (caller) thread; real clocks bill no virtual
  // ops, so the charge hook stays null.
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryState& state = *states[q];
    PrewarmQuery(ctx, q, &state.heap, &state.prewarmed_ids, {});
  }

  // Batch-completion tracker: group batons of the current rank still out.
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t batons_remaining = 0;
  FaultLedger ledger(backend);
  ChainExecutor executor(ctx, backend, &ledger, [&] {
    std::lock_guard<std::mutex> lock(done_mu);
    if (--batons_remaining == 0) done_cv.notify_all();
  });
  // Per-query completion stamp: the last accounted chain of a query writes
  // the query's real latency. `watch` is read concurrently from worker
  // threads; StopWatch only subtracts a const time_point, which is safe.
  const auto note_chain_done = [&states, &watch](int32_t query) {
    QueryState& state = *states[static_cast<size_t>(query)];
    if (state.chains_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      state.done_seconds.store(watch.ElapsedSeconds(),
                               std::memory_order_release);
    }
  };
  executor.set_on_chain_done(note_chain_done);
  // Queries the router gave no chain at all complete at t=0 (prewarm only).
  for (size_t q = 0; q < queries.size(); ++q) {
    if (states[q]->chains_left.load(std::memory_order_relaxed) == 0) {
      states[q]->done_seconds.store(watch.ElapsedSeconds(),
                                    std::memory_order_relaxed);
    }
  }

  // The substrate opens after every object its stages touch (ctx, states,
  // ledger, executor, the done tracker) and is closed by this guard before
  // any of them dies — including on the timeout early-returns below.
  backend->Open(&ctx);
  struct CloseOnExit {
    ChainBatchBackend* backend;
    ~CloseOnExit() { backend->Close(); }
  } close_on_exit{backend};

  // Builds the batch output once every chain has finished.
  const auto assemble = [&]() -> ThreadedOutput {
    ThreadedOutput out;
    out.results.resize(queries.size());
    out.degraded.assign(queries.size(), 0);
    out.query_seconds.assign(queries.size(), -1.0);
    out.faults = ledger.Snapshot();
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryState& state = *states[q];
      {
        std::lock_guard<std::mutex> lock(state.mu);
        out.results[q] = state.heap.SortedResults();
      }
      out.query_seconds[q] =
          state.done_seconds.load(std::memory_order_acquire);
      if (state.degraded.load(std::memory_order_relaxed)) {
        out.degraded[q] = 1;
        ++out.faults.degraded_queries;
      }
    }
    out.bytes_streamed =
        backend->bytes_streamed_.load(std::memory_order_relaxed);
    out.bytes_compressed =
        backend->bytes_compressed_.load(std::memory_order_relaxed);
    out.wall_seconds = watch.ElapsedSeconds();
    return out;
  };

  // Shared scans need the routing's query-group table (RouteBatch with
  // group_size > 1) and a substrate that can scan a group at once; without
  // them every chain rides a baton of its own.
  const bool shared = allow_groups && opts.shared_scans &&
                      routing.num_groups > 0 &&
                      routing.chain_group.size() == routing.chains.size();

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              opts.max_wall_seconds > 0.0 ? opts.max_wall_seconds : 0.0));

  // Vector pipeline: dispatch chains rank by rank with a barrier, so later
  // ranks inherit tightened thresholds — the Figure 5(a) staging.
  size_t begin = 0;
  size_t chain_index = 0;
  while (begin < routing.chains.size()) {
    size_t end = begin;
    const int32_t rank = routing.chains[begin].probe_rank;
    while (end < routing.chains.size() &&
           routing.chains[end].probe_rank == rank) {
      ++end;
    }
    if (opts.max_wall_seconds > 0.0 &&
        std::chrono::steady_clock::now() >= deadline) {
      // Budget already spent: don't start another rank.
      return Status::Timeout("batch exceeded max_wall_seconds");
    }

    // Prepare the rank's chains: the client allocates every chain's state,
    // the node pools fill the candidate arrays, then the client walks the
    // chains in order — empty-chain skip, the (static, pure-function-of-
    // the-plan) loss schedule and group assembly — all shared lifecycle
    // code in core/chain_exec.cc.
    std::vector<std::shared_ptr<ChainExecState>> prepared;
    prepared.reserve(end - begin);
    for (size_t c = begin; c < end; ++c) {
      prepared.push_back(executor.AllocateChain(routing.chains[c]));
    }
    executor.FillChains(prepared);
    std::vector<std::shared_ptr<GroupExecState>> groups;
    std::unordered_map<int32_t, size_t> group_slot;  // group id -> index
    for (size_t c = begin; c < end; ++c, ++chain_index) {
      const QueryChain& chain = routing.chains[c];
      std::shared_ptr<ChainExecState> task = std::move(prepared[c - begin]);
      if (task->cand.id.empty() || executor.ApplyGroupMemberLoss(task.get())) {
        // Nothing to scan, or unreachable: no posts needed.
        note_chain_done(chain.query);
        continue;
      }
      size_t slot = groups.size();
      if (shared) {
        slot = group_slot.try_emplace(routing.chain_group[c], slot)
                   .first->second;
      }
      if (slot == groups.size()) {
        auto group = std::make_shared<GroupExecState>();
        group->shard = chain.shard;
        group->order = executor.MakeGroupOrder(chain_index);
        groups.push_back(std::move(group));
      }
      groups[slot]->members.push_back(std::move(task));
    }

    {
      std::lock_guard<std::mutex> lock(done_mu);
      batons_remaining = groups.size();
    }
    for (auto& group : groups) {
      // Every member kept at least one block, so a runnable stage exists.
      const bool posted = executor.PostGroupStageFrom(group, 0);
      HARMONY_CHECK_MSG(posted, "query group with no runnable stage");
    }
    if (!groups.empty()) {
      std::unique_lock<std::mutex> lock(done_mu);
      if (opts.max_wall_seconds > 0.0) {
        if (!done_cv.wait_until(lock, deadline,
                                [&] { return batons_remaining == 0; })) {
          return Status::Timeout(
              "batch exceeded max_wall_seconds; a baton was lost or the "
              "cluster is wedged");
        }
      } else {
        done_cv.wait(lock, [&] { return batons_remaining == 0; });
      }
    }
    HARMONY_RETURN_NOT_OK(backend->status());
    // Rank barrier: fold this rank's health observations so the next rank's
    // replica selection (client thread) reads a fixed epoch state.
    health.FoldEpoch();
    begin = end;
  }

  return assemble();
}

Result<ThreadedOutput> ExecuteThreaded(const IvfIndex& index,
                                       const PartitionPlan& plan,
                                       const std::vector<WorkerStore>& stores,
                                       const PrewarmCache& prewarm,
                                       const BatchRouting& routing,
                                       const DatasetView& queries,
                                       const ExecOptions& opts) {
  ThreadedBackend backend;
  return RunChainBatch(index, plan, stores, prewarm, routing, queries, opts,
                       /*allow_groups=*/true, &backend);
}

}  // namespace harmony
