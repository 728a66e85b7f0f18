#include "net/remote_worker.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "core/block_scan.h"
#include "core/partition.h"
#include "index/kernel_tune.h"

namespace harmony {
namespace {

/// FNV-1a over 64-bit words (the update-log checksum idiom at store scale).
struct Fnv64 {
  uint64_t h = 14695981039346656037ULL;
  void Mix(uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  void MixF32(float f) {
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    Mix(bits);
  }
};

}  // namespace

uint64_t ComputeStoreDigest(const std::vector<WorkerStore>& stores,
                            const uint64_t* tombstones,
                            size_t tombstone_words) {
  Fnv64 fnv;
  fnv.Mix(stores.size());
  for (const WorkerStore& store : stores) {
    fnv.Mix(static_cast<uint64_t>(store.machine_id()));
    fnv.Mix(store.blocks().size());
    for (const WorkerStore::Block& block : store.blocks()) {
      fnv.Mix(block.vec_shard);
      fnv.Mix(block.dim_block);
      fnv.Mix(block.range.begin);
      fnv.Mix(block.range.end);
      fnv.Mix(block.lists.size());
      // The list map is unordered; digest in sorted-id order so two builds
      // with different insertion histories still agree.
      std::vector<int32_t> ids;
      ids.reserve(block.lists.size());
      for (const auto& [list_id, slice] : block.lists) ids.push_back(list_id);
      std::sort(ids.begin(), ids.end());
      for (const int32_t list_id : ids) {
        const ListSlice& ls = block.lists.at(list_id);
        const size_t rows = ls.slice.num_rows();
        const size_t width = ls.slice.width();
        fnv.Mix(static_cast<uint64_t>(list_id));
        fnv.Mix(rows);
        for (size_t r = 0; r < rows; ++r) {
          fnv.Mix(static_cast<uint64_t>(ls.slice.GlobalId(r)));
          const float* row = ls.slice.Row(r);
          for (size_t c = 0; c < width; ++c) fnv.MixF32(row[c]);
        }
        fnv.Mix(ls.block_norm_sq.size());
        for (const float f : ls.block_norm_sq) fnv.MixF32(f);
        fnv.Mix(ls.total_norm_sq.size());
        for (const float f : ls.total_norm_sq) fnv.MixF32(f);
        fnv.Mix(ls.codes.size());
        for (size_t i = 0; i < ls.codes.size(); ++i) {
          fnv.Mix(static_cast<uint64_t>(ls.codes[i]) ^ (i << 8));
        }
        fnv.Mix(ls.code_err.size());
        for (const float f : ls.code_err) fnv.MixF32(f);
      }
    }
  }
  fnv.Mix(tombstone_words);
  for (size_t w = 0; w < tombstone_words; ++w) fnv.Mix(tombstones[w]);
  return fnv.h;
}

Result<WorkerHello> MakeEngineHello(HarmonyEngine* engine, uint32_t worker_id,
                                    uint32_t num_workers) {
  if (!engine->built()) {
    return Status::FailedPrecondition("engine not built");
  }
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, engine->AcquireSnapshot());
  const PartitionPlan& plan = engine->plan();
  WorkerHello hello;
  hello.version = kWireVersion;
  hello.worker_id = worker_id;
  hello.num_workers = num_workers;
  hello.num_machines = static_cast<uint32_t>(plan.num_machines);
  hello.replication = static_cast<uint32_t>(plan.replication);
  hello.b_dim = static_cast<uint32_t>(plan.num_dim_blocks);
  hello.dim = static_cast<uint32_t>(engine->index().dim());
  hello.generation = snap.generation;
  hello.digest =
      ComputeStoreDigest(*snap.stores, snap.tombstones, snap.tombstone_words);
  return hello;
}

SocketWorker::SocketWorker(HarmonyEngine* engine, SocketWorkerOptions opts)
    : engine_(engine),
      opts_(opts),
      shim_(opts.faults, 2ULL * opts.worker_id + 1) {}

Status SocketWorker::Init() {
  HARMONY_RETURN_NOT_OK(opts_.faults.Validate());
  HARMONY_ASSIGN_OR_RETURN(snap_, engine_->AcquireSnapshot());
  HARMONY_ASSIGN_OR_RETURN(
      hello_, MakeEngineHello(engine_, opts_.worker_id, opts_.num_workers));
  init_done_ = true;
  return Status::OK();
}

bool SocketWorker::KillSwitchFired(const SocketChannel& ch) {
  const uint64_t kill = opts_.faults.kill_after_frames;
  if (kill == 0) return false;
  const uint64_t total = frames_before_channel_ + ch.frames_sent();
  if (total < kill) return false;
  if (opts_.kill_is_exit) {
    // Process mode: die hard, exactly as a crashed worker would — no
    // destructors, no flushes, the peer sees the stream cut.
    _exit(kKillExitCode);
  }
  killed_ = true;
  return true;
}

Status SocketWorker::HandleStageScan(const std::vector<uint32_t>& payload,
                                     std::vector<uint32_t>* out) const {
  HARMONY_ASSIGN_OR_RETURN(StageScanRequest req,
                           DecodeStageScanRequest(payload));
  const PartitionPlan& plan = engine_->plan();
  const std::vector<WorkerStore>& stores = *snap_.stores;
  // Semantic validation: everything the decode caps could not know. A
  // frontend/worker state divergence surfaces here as a Status reply, never
  // as an out-of-bounds read.
  if (req.machine >= stores.size()) {
    return Status::InvalidArgument("scan machine " +
                                   std::to_string(req.machine) +
                                   " out of range");
  }
  if (req.dim_block >= plan.num_dim_blocks) {
    return Status::InvalidArgument("scan dim_block " +
                                   std::to_string(req.dim_block) +
                                   " out of range");
  }
  if (req.metric > static_cast<uint32_t>(Metric::kCosine)) {
    return Status::InvalidArgument("scan metric " + std::to_string(req.metric) +
                                   " unknown");
  }
  const DimRange range = plan.dim_ranges[req.dim_block];
  if (req.width != range.width()) {
    return Status::InvalidArgument(
        "scan width " + std::to_string(req.width) + " != block width " +
        std::to_string(range.width()));
  }
  const WorkerStore& store = stores[req.machine];
  std::vector<const ListSlice*> slices(req.lists.size(), nullptr);
  for (size_t li = 0; li < req.lists.size(); ++li) {
    slices[li] = store.FindListSlice(req.vec_shard, req.dim_block,
                                     req.lists[li]);
  }
  const size_t count = req.id.size();
  for (size_t i = 0; i < count; ++i) {
    const int32_t li = req.list[i];
    if (li < 0 || static_cast<size_t>(li) >= slices.size()) {
      return Status::InvalidArgument("candidate references list index " +
                                     std::to_string(li) + " out of range");
    }
    if (slices[li] == nullptr) {
      return Status::InvalidArgument(
          "candidate references list " + std::to_string(req.lists[li]) +
          " not stored on machine " + std::to_string(req.machine));
    }
    if (req.row[i] < 0 || static_cast<size_t>(req.row[i]) >=
                              slices[li]->slice.num_rows()) {
      return Status::InvalidArgument("candidate row " +
                                     std::to_string(req.row[i]) +
                                     " out of range for its list slice");
    }
  }
  if (req.use_norms && req.rem_p_sq.size() != count) {
    return Status::InvalidArgument("norm column size mismatch");
  }

  BlockScanParams scan;
  scan.metric = static_cast<Metric>(req.metric);
  scan.use_norms = req.use_norms;
  scan.prune = req.prune;
  scan.tau = req.tau;
  scan.rem_q_sq = req.rem_q_sq;
  scan.q_slice = req.q_slice.data();
  scan.width = req.width;
  scan.slices = slices.data();
  scan.use_batched = req.use_batched;
  // The worker's kAuto table, exactly as an unpinned in-process batch
  // dispatches. Tiers and shapes are bit-transparent, so the reply is
  // bit-identical to the frontend's own scan whichever tier either process
  // runs.
  scan.dispatch = DefaultDispatch(scan.metric);
  BlockScanCounters counters;
  const size_t w = ScanBlock(scan, 0, count, req.id.data(), req.list.data(),
                             req.row.data(), req.partial.data(),
                             req.use_norms ? req.rem_p_sq.data() : nullptr,
                             /*bound=*/nullptr, &counters);
  // The reply is encoded straight from the columns ScanBlock compacted.
  StageScanResult res;
  res.ops = counters.ops;
  res.dropped = counters.dropped;
  res.has_norms = req.use_norms;
  res.survivors.count = w;
  res.survivors.id = req.id.data();
  res.survivors.list = req.list.data();
  res.survivors.row = req.row.data();
  res.survivors.partial = req.partial.data();
  res.survivors.rem_p_sq = req.use_norms ? req.rem_p_sq.data() : nullptr;
  EncodeStageScanResult(res, out);
  return Status::OK();
}

Status SocketWorker::ServeChannel(SocketChannel* ch,
                                  const std::atomic<bool>* stop) {
  HARMONY_CHECK(init_done_);
  if (shim_.enabled()) ch->set_fault_injector(&shim_);
  ch->set_deadline_millis(opts_.poll_ms);
  // Request and reply buffers live for the connection: a steady stream of
  // stage scans reuses them.
  WireMessage msg;
  std::vector<uint32_t> reply;
  // Stage scans are served only once this connection's hello matched the
  // worker's identity: a peer that skipped (or failed) the digest check
  // could be scanning a diverged store.
  bool handshaken = false;
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    const Status got = ch->Recv(&msg);
    if (!got.ok()) {
      const StatusCode code = got.code();
      // kTimeout means no byte of a request arrived within poll_ms, so the
      // stream is at a message boundary: idle, re-check stop.
      if (code == StatusCode::kTimeout) continue;
      if (code == StatusCode::kUnavailable) return Status::OK();  // hangup
      return got;  // torn/corrupt stream: drop the connection
    }
    ++requests_served_;
    Status sent;
    switch (msg.op) {
      case kOpHello: {
        Result<WorkerHello> theirs = DecodeHello(msg.payload);
        Status check = theirs.ok()
                           ? CheckHelloMatch(hello_, theirs.value())
                           : theirs.status();
        handshaken = check.ok();
        if (check.ok()) {
          EncodeHello(hello_, &reply);
          sent = ch->Send(kOpHelloAck, reply);
        } else {
          EncodeErrorStatus(check, &reply);
          sent = ch->Send(kOpError, reply);
        }
        break;
      }
      case kOpStageScan: {
        const Status scanned =
            handshaken ? HandleStageScan(msg.payload, &reply)
                       : Status::FailedPrecondition(
                             "stage scan before a matching hello handshake");
        if (scanned.ok()) {
          sent = ch->Send(kOpStageResult, reply);
        } else {
          EncodeErrorStatus(scanned, &reply);
          sent = ch->Send(kOpError, reply);
        }
        break;
      }
      case kOpPing:
        sent = ch->Send(kOpPong, nullptr, 0);
        break;
      case kOpShutdown:
        shutdown_ = true;
        return Status::OK();
      default: {
        EncodeErrorStatus(
            Status::InvalidArgument("unknown opcode " +
                                    std::to_string(msg.op)),
            &reply);
        sent = ch->Send(kOpError, reply);
        break;
      }
    }
    if (!sent.ok()) return sent;  // peer gone mid-reply
    if (KillSwitchFired(*ch)) {
      ch->Close();
      return Status::Unavailable("worker killed by fault plan after " +
                                 std::to_string(opts_.faults.kill_after_frames) +
                                 " frames");
    }
  }
  return Status::OK();
}

Status SocketWorker::Serve(SocketListener* listener,
                           const std::atomic<bool>* stop) {
  HARMONY_CHECK(init_done_);
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    if (shutdown_ || killed_) break;
    Result<int> fd = listener->AcceptFd(opts_.poll_ms);
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kTimeout) continue;
      return fd.status();
    }
    SocketChannel ch(fd.value(), /*tenant=*/0, /*adopt_tenant=*/true);
    const Status served = ServeChannel(&ch, stop);
    frames_before_channel_ += ch.frames_sent();
    if (killed_) return served;
    // A torn connection (fault shim, crashed frontend, corrupt stream) must
    // never stop the worker: go back to accepting — that is what the
    // frontend's reconnect-with-backoff dials into.
    (void)served;
  }
  return Status::OK();
}

}  // namespace harmony
