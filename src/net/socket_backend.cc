#include "net/socket_backend.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/chain_exec.h"
#include "core/exec_plan.h"
#include "core/router.h"

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
  peers_.resize(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    peers_[w].addr = workers[w];
    if (opts_.faults.enabled()) {
      peers_[w].shim =
          std::make_unique<SocketFaultInjector>(opts_.faults, 2ULL * w);
    }
  }
  for (size_t w = 0; w < workers.size(); ++w) {
    HARMONY_RETURN_NOT_OK(Dial(w));
  }
  return Status::OK();
}

size_t SocketFrontend::workers_dead() const {
  size_t n = 0;
  for (const Peer& p : peers_) n += p.dead ? 1 : 0;
  return n;
}

Status SocketFrontend::Dial(size_t w) {
  Peer& p = peers_[w];
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
  ++stats_.reconnects;
  return Status::OK();
}

Result<WireMessage> SocketFrontend::Call(size_t w, uint16_t op,
                                         const std::vector<uint32_t>& payload,
                                         uint32_t* attempts_out) {
  HARMONY_CHECK(w < peers_.size());
  if (attempts_out != nullptr) *attempts_out = 0;
  Peer& p = peers_[w];
  if (p.dead) {
    return Status::Unavailable("worker " + std::to_string(w) +
                               " is marked dead");
  }
  Status last = Status::Unavailable("no attempt made");
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
        ++stats_.rpc_failures;
        last = std::move(dialed);
        continue;
      }
    }
    Status sent = p.ch.Send(op, payload);
    if (!sent.ok()) {
      p.ch.Close();
      ++stats_.rpc_failures;
      last = std::move(sent);
      continue;
    }
    Result<WireMessage> reply = p.ch.Recv();
    if (!reply.ok()) {
      p.ch.Close();
      ++stats_.rpc_failures;
      last = reply.status();
      continue;
    }
    if (attempts_out != nullptr) *attempts_out = attempt + 1;
    ++stats_.rpcs;
    // Application-level rejection from a live worker: surface the Status
    // as-is, no retry (the request, not the transport, is the problem).
    if (reply.value().op == kOpError) {
      return DecodeErrorStatus(reply.value().payload);
    }
    return reply;
  }
  p.dead = true;
  p.ch.Close();
  ++stats_.workers_marked_dead;
  if (attempts_out != nullptr) *attempts_out = opts_.max_attempts;
  return Status::Unavailable(
      "worker " + std::to_string(w) + " unreachable after " +
      std::to_string(opts_.max_attempts) + " attempts: " + last.message());
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
    if (!peers_[w].dead) continue;
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
      peers_[w].dead = false;
      ++stats_.workers_rejoined;
    }
  }
  return Status::OK();
}

void SocketFrontend::ShutdownWorkers() {
  for (Peer& p : peers_) {
    if (!p.dead && p.ch.valid()) {
      (void)p.ch.Send(kOpShutdown, nullptr, 0);
    }
  }
}

namespace {

/// The socket substrate of the shared batch driver: one frontend thread
/// runs every post inline, and each solo stage scan is an RPC to the worker
/// owning the block's machine.
class SocketBackend final : public ChainBatchBackend {
 public:
  explicit SocketBackend(SocketFrontend* net) : net_(net) {}

  StageScanOutcome ScanStage(const ExecContext& ctx, const QueryChain& chain,
                             size_t d, size_t machine,
                             const BlockScanParams& scan,
                             ChainCandidates* cand) override;

  void PostStage(size_t /*machine*/, std::function<void()> stage) override {
    stage();
  }
  uint32_t PostHop(size_t /*machine*/, uint64_t /*msg_key*/,
                   uint32_t /*max_retries*/,
                   std::function<void()> stage) override {
    stage();
    return 1;
  }
  Status status() const override { return status_; }

 private:
  SocketFrontend* net_;
  Status status_;
  std::vector<uint32_t> payload_;
  std::vector<uint8_t> rorder_;
};

/// Replaces `cand` with the survivors a stage-scan reply carries. A reply of
/// the wrong opcode or shape is a protocol error.
Status ApplyStageReply(const WireMessage& reply, bool use_norms,
                       ChainCandidates* cand) {
  if (reply.op != kOpStageResult) {
    return Status::IoError("stage scan answered with opcode " +
                           std::to_string(reply.op));
  }
  HARMONY_ASSIGN_OR_RETURN(StageScanResult res,
                           DecodeStageScanResult(reply.payload));
  if (res.has_norms != use_norms || res.id.size() > cand->id.size()) {
    return Status::IoError("stage scan reply shape mismatch");
  }
  cand->id = std::move(res.id);
  cand->list = std::move(res.list);
  cand->row = std::move(res.row);
  cand->partial = std::move(res.partial);
  if (use_norms) cand->rem_p_sq = std::move(res.rem_p_sq);
  return Status::OK();
}

/// Walks the block's replicas in health order, ships the scan, and applies
/// the compacted survivors. All replicas down => the block is lost, exactly
/// as a threaded baton past its retry budget.
StageScanOutcome SocketBackend::ScanStage(const ExecContext& ctx,
                                          const QueryChain& chain, size_t d,
                                          size_t /*machine*/,
                                          const BlockScanParams& scan,
                                          ChainCandidates* cand) {
  StageScanOutcome out;
  out.delivered = false;
  // A failed batch drains its remaining stages as lost blocks, without RPCs.
  if (!status_.ok()) return out;
  const PartitionPlan& plan = *ctx.plan;
  NodeHealthTracker* health = ctx.health;
  const size_t shard = static_cast<size_t>(chain.shard);

  StageScanRequest req;
  req.vec_shard = static_cast<uint32_t>(shard);
  req.dim_block = static_cast<uint32_t>(d);
  req.metric = static_cast<uint32_t>(scan.metric);
  req.prune = scan.prune;
  req.use_norms = scan.use_norms;
  req.use_batched = scan.use_batched;
  req.tau = scan.tau;
  req.rem_q_sq = scan.rem_q_sq;
  req.width = static_cast<uint32_t>(scan.width);
  req.q_slice.assign(scan.q_slice, scan.q_slice + scan.width);
  req.lists = chain.lists;
  req.id = cand->id;
  req.list = cand->list;
  req.row = cand->row;
  req.partial = cand->partial;
  if (scan.use_norms) req.rem_p_sq = cand->rem_p_sq;

  StageReplicaOrder(ctx, chain, d, &rorder_);
  for (const uint8_t r : rorder_) {
    const size_t machine = static_cast<size_t>(plan.ReplicaOf(shard, d, r));
    const size_t w = net_->WorkerOf(machine);
    if (net_->WorkerDead(w)) {
      ++out.failovers;
      continue;
    }
    req.machine = static_cast<uint32_t>(machine);
    EncodeStageScanRequest(req, &payload_);
    uint32_t attempts = 0;
    Result<WireMessage> reply =
        net_->Call(w, kOpStageScan, payload_, &attempts);
    if (!reply.ok()) {
      const StatusCode code = reply.status().code();
      // A live worker rejecting the request (decode/validation/state
      // divergence) is a protocol failure, not a dead peer: failing over
      // would mask real divergence. Fail the batch loudly.
      if (code == StatusCode::kInvalidArgument ||
          code == StatusCode::kFailedPrecondition ||
          code == StatusCode::kNotSupported ||
          code == StatusCode::kIoError) {
        status_ = reply.status();
        return out;
      }
      // Transport exhaustion: Call marked the worker dead. Every machine
      // that worker owned is now known-dead for replica ordering.
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
    status_ = ApplyStageReply(reply.value(), scan.use_norms, cand);
    if (!status_.ok()) return out;
    out.delivered = true;
    out.machine = machine;
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
