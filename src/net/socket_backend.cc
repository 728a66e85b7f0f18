#include "net/socket_backend.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "core/chain_exec.h"
#include "core/exec_plan.h"
#include "core/router.h"
#include "net/threaded_cluster.h"

namespace harmony {

SocketFrontend::SocketFrontend(SocketFrontendOptions opts)
    : opts_(opts) {}

Status SocketFrontend::Connect(const std::vector<SocketAddr>& workers,
                               const WorkerHello& expect) {
  if (workers.empty()) {
    return Status::InvalidArgument("socket frontend needs >= 1 worker");
  }
  HARMONY_RETURN_NOT_OK(opts_.faults.Validate());
  expect_ = expect;
  expect_.num_workers = static_cast<uint32_t>(workers.size());
  peers_.clear();
  for (size_t w = 0; w < workers.size(); ++w) {
    auto peer = std::make_unique<Peer>();
    peer->addr = workers[w];
    if (opts_.faults.enabled()) {
      peer->shim =
          std::make_unique<SocketFaultInjector>(opts_.faults, 2ULL * w);
    }
    peers_.push_back(std::move(peer));
  }
  for (size_t w = 0; w < workers.size(); ++w) {
    std::lock_guard<std::mutex> lock(peers_[w]->mu);
    HARMONY_RETURN_NOT_OK(Dial(w));
  }
  return Status::OK();
}

size_t SocketFrontend::workers_dead() const {
  size_t n = 0;
  for (size_t w = 0; w < peers_.size(); ++w) n += WorkerDead(w) ? 1 : 0;
  return n;
}

Status SocketFrontend::Dial(size_t w) {
  Peer& p = *peers_[w];
  p.ch.Close();
  HARMONY_ASSIGN_OR_RETURN(const int fd,
                           ConnectFd(p.addr, opts_.connect_deadline_ms));
  SocketChannel ch(fd, static_cast<uint16_t>(w + 1));
  ch.set_deadline_millis(opts_.rpc_deadline_ms);
  if (p.shim != nullptr) ch.set_fault_injector(p.shim.get());
  WorkerHello mine = expect_;
  mine.worker_id = static_cast<uint32_t>(w);
  std::vector<uint32_t> payload;
  EncodeHello(mine, &payload);
  HARMONY_RETURN_NOT_OK(ch.Send(kOpHello, payload));
  HARMONY_ASSIGN_OR_RETURN(const WireMessage ack, ch.Recv());
  if (ack.op == kOpError) return DecodeErrorStatus(ack.payload);
  if (ack.op != kOpHelloAck) {
    return Status::IoError("unexpected handshake reply opcode " +
                           std::to_string(ack.op));
  }
  HARMONY_ASSIGN_OR_RETURN(const WorkerHello theirs, DecodeHello(ack.payload));
  HARMONY_RETURN_NOT_OK(CheckHelloMatch(mine, theirs));
  p.ch = std::move(ch);
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SocketFrontend::Call(size_t w, uint16_t op, const uint32_t* payload,
                            size_t words, WireMessage* reply,
                            uint32_t* attempts_out) {
  HARMONY_CHECK(w < peers_.size());
  if (attempts_out != nullptr) *attempts_out = 0;
  Peer& p = *peers_[w];
  // One RPC per connection at a time: the lock spans every attempt, so a
  // reply always answers the request sent just before it.
  std::lock_guard<std::mutex> lock(p.mu);
  if (p.dead.load(std::memory_order_acquire)) {
    return Status::Unavailable("worker " + std::to_string(w) +
                               " is marked dead");
  }
  Status last;
  for (uint32_t attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Deterministic capped exponential backoff: a pure function of
      // (seed, worker, attempt) — a replayed failure retries on the same
      // schedule.
      const uint64_t delay = BackoffDelayMicros(
          opts_.backoff_seed + 0x9E3779B97F4A7C15ULL * (w + 1), attempt - 1);
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    if (!p.ch.valid()) {
      Status dialed = Dial(w);
      if (!dialed.ok()) {
        if (dialed.code() == StatusCode::kFailedPrecondition) {
          // Handshake identity mismatch (e.g. a restarted worker that did
          // not replay its log): retrying cannot fix state divergence.
          if (attempts_out != nullptr) *attempts_out = attempt + 1;
          return dialed;
        }
        stats_.rpc_failures.fetch_add(1, std::memory_order_relaxed);
        last = std::move(dialed);
        continue;
      }
    }
    Status st = p.ch.Send(op, payload, words);
    if (st.ok()) st = p.ch.Recv(reply);
    if (!st.ok()) {
      p.ch.Close();
      stats_.rpc_failures.fetch_add(1, std::memory_order_relaxed);
      last = std::move(st);
      continue;
    }
    if (attempts_out != nullptr) *attempts_out = attempt + 1;
    stats_.rpcs.fetch_add(1, std::memory_order_relaxed);
    // Application-level rejection from a live worker: surface the Status
    // as-is, no retry (the request, not the transport, is the problem).
    if (reply->op == kOpError) return DecodeErrorStatus(reply->payload);
    return Status::OK();
  }
  p.dead.store(true, std::memory_order_release);
  p.ch.Close();
  stats_.workers_marked_dead.fetch_add(1, std::memory_order_relaxed);
  if (attempts_out != nullptr) *attempts_out = opts_.max_attempts;
  return Status::Unavailable(
      "worker " + std::to_string(w) + " unreachable after " +
      std::to_string(opts_.max_attempts) +
      " attempts: " + (last.ok() ? "no attempt made" : last.message()));
}

Result<WireMessage> SocketFrontend::Call(size_t w, uint16_t op,
                                         const std::vector<uint32_t>& payload,
                                         uint32_t* attempts_out) {
  WireMessage reply;
  HARMONY_RETURN_NOT_OK(
      Call(w, op, payload.data(), payload.size(), &reply, attempts_out));
  return reply;
}

Status SocketFrontend::Ping(size_t w) {
  HARMONY_ASSIGN_OR_RETURN(const WireMessage pong, Call(w, kOpPing, {}));
  if (pong.op != kOpPong) {
    return Status::IoError("ping answered with opcode " +
                           std::to_string(pong.op));
  }
  return Status::OK();
}

Status SocketFrontend::ReconnectDead() {
  for (size_t w = 0; w < peers_.size(); ++w) {
    Peer& p = *peers_[w];
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.dead.load(std::memory_order_acquire)) continue;
    bool joined = false;
    for (uint32_t attempt = 0; attempt < opts_.max_attempts && !joined;
         ++attempt) {
      if (attempt > 0) {
        const uint64_t delay = BackoffDelayMicros(
            opts_.backoff_seed + 0x9E3779B97F4A7C15ULL * (w + 1), attempt - 1);
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
      Status dialed = Dial(w);
      if (dialed.ok()) {
        joined = true;
      } else if (dialed.code() == StatusCode::kFailedPrecondition) {
        return dialed;  // came back with divergent state: replay missing
      }
    }
    if (joined) {
      p.dead.store(false, std::memory_order_release);
      stats_.workers_rejoined.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void SocketFrontend::ShutdownWorkers() {
  for (const std::unique_ptr<Peer>& peer : peers_) {
    Peer& p = *peer;
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.dead.load(std::memory_order_acquire) && p.ch.valid()) {
      (void)p.ch.Send(kOpShutdown, nullptr, 0);
    }
  }
}

namespace {

/// One frontend thread's RPC buffers, reused by every stage scan the thread
/// ships: the encoded request, the reply and the replica walk order.
struct RpcScratch {
  std::vector<uint32_t> request;
  WireMessage reply;
  std::vector<uint8_t> rorder;
};

/// The socket substrate of the shared batch driver: stages run on a
/// ThreadedCluster with one node per worker connection, each posted to the
/// node of the worker that owns the stage's machine, and each group
/// member's stage scan is an RPC to the worker owning the block's replica.
class SocketBackend final : public ChainBatchBackend {
 public:
  explicit SocketBackend(SocketFrontend* net) : net_(net) {}

  void Open(ExecContext* /*ctx*/) override {
    cluster_ = std::make_unique<ThreadedCluster>(net_->num_workers());
  }
  /// Joins the frontend threads; an RPC in flight finishes (or times out)
  /// first.
  void Close() override { cluster_.reset(); }

  uint64_t ScanStage(const ExecContext& ctx, size_t d, size_t machine,
                     std::vector<StageMember>* members) override;

  void PostStage(size_t machine, std::function<void()> stage) override {
    cluster_->Post(net_->WorkerOf(machine), std::move(stage));
  }
  Status status() const override {
    std::lock_guard<std::mutex> lock(status_mu_);
    return status_;
  }

 private:
  /// One member's kOpStageScan with its replica walk.
  StageScanOutcome ScanMember(const ExecContext& ctx, const QueryChain& chain,
                              size_t d, const BlockScanParams& scan,
                              ChainCandidates* cand);
  /// Latches the batch's first failure.
  void Fail(Status st);

  SocketFrontend* net_;
  std::unique_ptr<ThreadedCluster> cluster_;
  /// Set once a failure is latched: later stages drain without RPCs.
  std::atomic<bool> failed_{false};
  mutable std::mutex status_mu_;
  Status status_;
};

void SocketBackend::Fail(Status st) {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (status_.ok()) status_ = std::move(st);
  failed_.store(true, std::memory_order_release);
}

/// Ships every member's scan in turn. Groups never reach this substrate
/// (ExecuteSocket runs one chain per group), so there is no shared row
/// stream to exploit: each member bills its own survivors' rows.
uint64_t SocketBackend::ScanStage(const ExecContext& ctx, size_t d,
                                  size_t /*machine*/,
                                  std::vector<StageMember>* members) {
  uint64_t bytes = 0;
  for (StageMember& m : *members) {
    m.outcome = ScanMember(ctx, *m.chain, d, m.scan, m.cand);
    if (m.outcome.delivered) {
      bytes += static_cast<uint64_t>(m.cand->id.size()) * m.scan.width *
               sizeof(float);
    }
  }
  return bytes;
}

/// Walks the block's replicas in health order, ships the scan encoded
/// straight from the chain's candidate columns, and decodes the compacted
/// survivors back into them. All replicas down => the block is lost, exactly
/// as a threaded hop past its retry budget.
StageScanOutcome SocketBackend::ScanMember(const ExecContext& ctx,
                                           const QueryChain& chain, size_t d,
                                           const BlockScanParams& scan,
                                           ChainCandidates* cand) {
  StageScanOutcome out;
  out.delivered = false;
  // A failed batch drains its remaining stages as lost blocks, without RPCs.
  if (failed_.load(std::memory_order_acquire)) return out;
  thread_local RpcScratch scratch;
  const PartitionPlan& plan = *ctx.plan;
  NodeHealthTracker* health = ctx.health;
  const size_t shard = static_cast<size_t>(chain.shard);

  StageScanHeader head;
  head.vec_shard = static_cast<uint32_t>(shard);
  head.dim_block = static_cast<uint32_t>(d);
  head.metric = static_cast<uint32_t>(scan.metric);
  head.prune = scan.prune;
  head.use_norms = scan.use_norms;
  head.use_batched = scan.use_batched;
  head.tau = scan.tau;
  head.rem_q_sq = scan.rem_q_sq;
  head.width = static_cast<uint32_t>(scan.width);
  StageColumns cols;
  cols.count = cand->id.size();
  cols.id = cand->id.data();
  cols.list = cand->list.data();
  cols.row = cand->row.data();
  cols.partial = cand->partial.data();
  cols.rem_p_sq = scan.use_norms ? cand->rem_p_sq.data() : nullptr;

  StageReplicaOrder(ctx, chain, d, &scratch.rorder);
  for (const uint8_t r : scratch.rorder) {
    const size_t machine = static_cast<size_t>(plan.ReplicaOf(shard, d, r));
    const size_t w = net_->WorkerOf(machine);
    if (net_->WorkerDead(w)) {
      ++out.failovers;
      continue;
    }
    head.machine = static_cast<uint32_t>(machine);
    EncodeStageScanRequest(head, scan.q_slice, chain.lists, cols,
                           &scratch.request);
    uint32_t attempts = 0;
    const Status called =
        net_->Call(w, kOpStageScan, scratch.request.data(),
                   scratch.request.size(), &scratch.reply, &attempts);
    if (!called.ok()) {
      const StatusCode code = called.code();
      // A live worker rejecting the request (decode/validation/state
      // divergence) is a protocol failure, not a dead peer: failing over
      // would mask real divergence. Fail the batch loudly.
      if (code == StatusCode::kInvalidArgument ||
          code == StatusCode::kFailedPrecondition ||
          code == StatusCode::kNotSupported ||
          code == StatusCode::kIoError) {
        Fail(called);
        return out;
      }
      // Transport exhaustion: Call marked the worker dead (here or on
      // another frontend thread). Every machine that worker owned is now
      // known-dead for replica ordering.
      health->RecordAttempts(machine, attempts);
      health->RecordFailures(machine, attempts);
      for (size_t m = 0; m < plan.num_machines; ++m) {
        if (net_->WorkerOf(m) == w) health->RecordDead(m);
      }
      ++out.failovers;
      continue;
    }
    health->RecordAttempts(machine, attempts);
    if (attempts > 1) health->RecordFailures(machine, attempts - 1);
    StageScanResult res;
    res.has_norms = scan.use_norms;
    res.survivors = cols;
    const Status decoded = DecodeStageScanResult(
        scratch.reply.op, scratch.reply.payload, &res);
    if (!decoded.ok()) {
      Fail(decoded);
      return out;
    }
    // The survivors now lead every column; shrinking never reallocates.
    const size_t n = res.survivors.count;
    cand->id.resize(n);
    cand->list.resize(n);
    cand->row.resize(n);
    cand->partial.resize(n);
    if (scan.use_norms) cand->rem_p_sq.resize(n);
    out.delivered = true;
    out.attempts = attempts;
    return out;
  }
  return out;
}

}  // namespace

Result<ThreadedOutput> ExecuteSocket(const IvfIndex& index,
                                     const PartitionPlan& plan,
                                     const std::vector<WorkerStore>& stores,
                                     const PrewarmCache& prewarm,
                                     const BatchRouting& routing,
                                     const DatasetView& queries,
                                     const ExecOptions& opts,
                                     SocketFrontend* net) {
  if (net == nullptr || net->num_workers() == 0) {
    return Status::InvalidArgument("socket backend requires connected workers");
  }
  if (opts.use_pq_streams) {
    return Status::NotSupported(
        "PQ streams are not supported over the socket backend");
  }
  if (opts.faults.enabled()) {
    return Status::InvalidArgument(
        "modeled FaultPlans are sim/threaded-only; socket runs inject "
        "connection-level faults via SocketFrontendOptions::faults");
  }
  SocketBackend backend(net);
  return RunChainBatch(index, plan, stores, prewarm, routing, queries, opts,
                       /*allow_groups=*/false, &backend);
}

Result<ThreadedOutput> SearchBatchOverSockets(HarmonyEngine* engine,
                                              SocketFrontend* net,
                                              const DatasetView& queries,
                                              size_t k, size_t nprobe) {
  if (!engine->built()) {
    return Status::FailedPrecondition("engine not built");
  }
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, engine->AcquireSnapshot());
  const ExecOptions exec = engine->BuildExecOptions(k, nprobe);
  const BatchRouting routing =
      RouteBatch(engine->index(), engine->plan(), queries, nprobe,
                 exec.shared_scans ? exec.query_group_size : 1);
  return ExecuteSocket(engine->index(), engine->plan(), *snap.stores,
                       engine->prewarm_cache(), routing, queries, exec, net);
}

}  // namespace harmony
