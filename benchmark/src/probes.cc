#include "probes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/chain_exec.h"
#include "core/exec_plan.h"
#include "core/router.h"
#include "net/socket_proto.h"
#include "net/threaded_cluster.h"
#include "workload/queries.h"

namespace harmony {
namespace wallclock {

namespace {

/// The ExecBackend MakeStageScanParams reads thresholds through. It reports
/// an empty heap, so replayed stages never prune: every candidate is
/// scanned in every block, which is what the scan-rate probe measures.
class NoPruneBackend final : public ExecBackend {
 public:
  void ReadThreshold(int32_t, float* tau, bool* heap_full) override {
    *tau = std::numeric_limits<float>::max();
    *heap_full = false;
  }
  const std::unordered_set<int64_t>* PrewarmedIds(size_t) override {
    return &empty_;
  }
  void WithQueryHeap(int32_t, const std::function<void(TopKHeap&)>&) override {}
  void TagDegraded(int32_t) override {}
  void ChargeStreamedBytes(size_t, uint64_t) override {}
  void ChargeCompressedBytes(size_t, uint64_t) override {}
  void PostStage(size_t, std::function<void()> stage) override { stage(); }
  uint32_t PostHop(size_t, uint64_t, uint32_t,
                   std::function<void()> stage) override {
    stage();
    return 1;
  }

 private:
  std::unordered_set<int64_t> empty_;
};

/// The candidates of every chain of `routing`, with its slice tables.
std::vector<ChainCandidates> BuildCandidates(
    const ExecContext& ctx, const BatchRouting& routing,
    const std::vector<std::unordered_set<int64_t>>& prewarmed) {
  std::vector<ChainCandidates> out(routing.chains.size());
  for (size_t c = 0; c < routing.chains.size(); ++c) {
    const QueryChain& chain = routing.chains[c];
    BuildChainSliceTable(ctx, chain, &out[c]);
    BuildChainCandidateArrays(
        ctx, chain, prewarmed[static_cast<size_t>(chain.query)], &out[c]);
    if (ctx.use_norms) ComputeQueryBlockNorms(ctx, chain, &out[c]);
  }
  return out;
}

/// ScanBlock replayed with pruning off over the batch's real chains, then
/// the exact rerank of each chain's candidates.
Status ReplayProbe(const RunContext& rc, HarmonyEngine* engine,
                   const DatasetView& queries, ProbeCounts* counts) {
  Tracer* t = rc.tracer;
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, engine->AcquireSnapshot());
  const ExecOptions exec = engine->BuildExecOptions(rc.w.k, rc.w.nprobe);
  const BatchRouting routing =
      RouteBatch(engine->index(), engine->plan(), queries, rc.w.nprobe,
                 exec.shared_scans ? exec.query_group_size : 1);
  Result<ExecContext> made = [&]() {
    ScopedSpan span(t, "core", "MakeExecContext");
    return MakeExecContext(engine->index(), engine->plan(), *snap.stores,
                           engine->prewarm_cache(), routing, queries, exec);
  }();
  HARMONY_RETURN_NOT_OK(made.status());
  const ExecContext& ctx = made.value();

  std::vector<std::unordered_set<int64_t>> prewarmed(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    TopKHeap heap(rc.w.k);
    ScopedSpan span(t, "core", "PrewarmQuery");
    PrewarmQuery(ctx, q, &heap, &prewarmed[q], {});
  }

  NoPruneBackend backend;
  std::vector<ChainCandidates> cands = BuildCandidates(ctx, routing, prewarmed);
  std::vector<float> dist;
  for (size_t c = 0; c < routing.chains.size(); ++c) {
    const QueryChain& chain = routing.chains[c];
    ChainCandidates& cand = cands[c];
    const size_t n = cand.id.size();
    if (n == 0) continue;
    uint64_t scanned = 0;
    for (size_t d = 0; d < ctx.b_dim; ++d) {
      const BlockScanParams params = MakeStageScanParams(
          ctx, &backend, chain, cand, d, /*processed=*/0, cand.rem_q_total);
      BlockScanCounters counters;
      {
        ScopedSpan span(t, "index", "ScanBlock");
        ScanBlock(params, 0, n, cand.id.data(), cand.list.data(),
                  cand.row.data(), cand.partial.data(),
                  ctx.use_norms ? cand.rem_p_sq.data() : nullptr,
                  ctx.use_pq ? cand.bound.data() : nullptr, &counters);
      }
      counts->scan_rows += n;
      counts->scan_bytes +=
          n * (ctx.use_pq ? params.code_size : params.width * sizeof(float));
      scanned |= uint64_t{1} << d;
    }
    dist.resize(n);
    ScopedSpan span(t, "index", "RerankChainCandidates");
    RerankChainCandidates(ctx, chain, cand, scanned, 0, n,
                          /*skip_by_tau=*/false, 0.0f, dist.data());
  }
  return Status::OK();
}

/// Encode + decode of the batch's first-stage scan requests, built as the
/// socket backend builds them.
Status CodecProbe(const RunContext& rc, HarmonyEngine* engine,
                  const DatasetView& queries, ProbeCounts* counts) {
  HARMONY_ASSIGN_OR_RETURN(const StoreSnapshot snap, engine->AcquireSnapshot());
  const ExecOptions exec = engine->BuildExecOptions(rc.w.k, rc.w.nprobe);
  const BatchRouting routing =
      RouteBatch(engine->index(), engine->plan(), queries, rc.w.nprobe, 1);
  HARMONY_ASSIGN_OR_RETURN(
      const ExecContext ctx,
      MakeExecContext(engine->index(), engine->plan(), *snap.stores,
                      engine->prewarm_cache(), routing, queries, exec));
  const std::vector<std::unordered_set<int64_t>> prewarmed(queries.size());
  const std::vector<ChainCandidates> cands =
      BuildCandidates(ctx, routing, prewarmed);
  NoPruneBackend backend;
  std::vector<uint32_t> payload;
  for (size_t c = 0; c < routing.chains.size(); ++c) {
    const QueryChain& chain = routing.chains[c];
    const ChainCandidates& cand = cands[c];
    if (cand.id.empty()) continue;
    const BlockScanParams scan = MakeStageScanParams(
        ctx, &backend, chain, cand, 0, /*processed=*/0, cand.rem_q_total);
    StageScanRequest req;
    req.vec_shard = static_cast<uint32_t>(chain.shard);
    req.metric = static_cast<uint32_t>(scan.metric);
    req.prune = scan.prune;
    req.use_norms = scan.use_norms;
    req.use_batched = scan.use_batched;
    req.tau = scan.tau;
    req.rem_q_sq = scan.rem_q_sq;
    req.width = static_cast<uint32_t>(scan.width);
    req.q_slice.assign(scan.q_slice, scan.q_slice + scan.width);
    req.lists = chain.lists;
    req.id = cand.id;
    req.list = cand.list;
    req.row = cand.row;
    req.partial = cand.partial;
    if (scan.use_norms) req.rem_p_sq = cand.rem_p_sq;
    ScopedSpan span(rc.tracer, "net", "StageScanCodec");
    EncodeStageScanRequest(req, &payload);
    HARMONY_RETURN_NOT_OK(DecodeStageScanRequest(payload).status());
    counts->request_bytes += payload.size() * sizeof(uint32_t);
    ++counts->requests;
  }
  return Status::OK();
}

Status NetProbe(const RunContext& rc, World* world, HarmonyEngine* engine,
                const Dataset& batch, ProbeCounts* counts) {
  Tracer* t = rc.tracer;
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span(t, "net", "ThreadedCluster");
    ThreadedCluster cluster(kMachines);
  }
  {
    ThreadedCluster cluster(kMachines);
    for (size_t i = 0; i < 200; ++i) {
      ScopedSpan span(t, "net", "PostBarrier");
      cluster.Post(i % kMachines, [] {});
      cluster.Barrier();
    }
  }

  // The socket workload reuses its own topology; the others start one on
  // their (float) engine for the duration of the probe.
  std::unique_ptr<SocketTopology> own;
  SocketTopology* topo = world->sockets.get();
  if (topo == nullptr) {
    HARMONY_ASSIGN_OR_RETURN(own, SocketTopology::Start(engine, rc.workdir));
    topo = own.get();
  }
  SocketFrontend* net = topo->frontend();
  for (size_t i = 0; i < 50; ++i) {
    ScopedSpan span(t, "net", "Ping");
    HARMONY_RETURN_NOT_OK(net->Ping(i % net->num_workers()));
  }
  std::vector<int64_t> rows(std::min<size_t>(50, batch.size()));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  const Dataset q = batch.Gather(rows);
  const uint64_t rpcs_before = net->stats().rpcs;
  {
    ScopedSpan span(t, "net", "SearchBatchOverSockets");
    HARMONY_RETURN_NOT_OK(
        SearchBatchOverSockets(engine, net, q.View(), rc.w.k, rc.w.nprobe)
            .status());
  }
  counts->socket_rpcs = net->stats().rpcs - rpcs_before;
  counts->socket_queries = rows.size();
  return CodecProbe(rc, engine, q.View(), counts);
}

}  // namespace

Status RunRequestProbes(const RunContext& rc, World* world,
                        const PhaseSummary& phase, ProbeCounts* counts) {
  HarmonyEngine* engine = world->engine.get();
  const DatasetView batch = phase.probe_batch.View();
  HARMONY_RETURN_NOT_OK(ReplayProbe(rc, engine, batch, counts));

  Result<BatchResult> sim = [&]() {
    ScopedSpan span(rc.tracer, "core", "SearchBatchPinned");
    return engine->SearchBatchPinned(batch, rc.w.k, rc.w.nprobe);
  }();
  HARMONY_RETURN_NOT_OK(sim.status());
  counts->survivor_frac = 1.0 - sim.value().stats.prune.AveragePruneRatio();
  counts->model_qps_log_error =
      std::fabs(std::log(sim.value().stats.qps / phase.probe_batch_qps));

  // The float twin: the same index on float streams. A float workload's
  // twin is its own engine.
  std::unique_ptr<HarmonyEngine> twin;
  HarmonyEngine* float_engine = engine;
  if (rc.w.pq) {
    twin = std::make_unique<HarmonyEngine>(
        EngineOptions(rc.w, world->data.spec, /*pq=*/false));
    HARMONY_RETURN_NOT_OK(twin->BuildFromIndex(engine->index()));
    float_engine = twin.get();
  }
  {
    ScopedSpan span(rc.tracer, "core", "FloatTwinSearch");
    HARMONY_RETURN_NOT_OK(
        float_engine->SearchBatchThreaded(batch, rc.w.k, rc.w.nprobe).status());
  }
  return NetProbe(rc, world, float_engine, phase.probe_batch, counts);
}

Status RunServeProbe(const RunContext& rc, World* world, TimelineStats* st) {
  RunContext probe = rc;
  probe.w = ServeMixed();
  probe.w.k = rc.w.k;
  probe.w.nprobe = rc.w.nprobe;
  probe.w.offered_qps = 200.0;
  probe.w.update_qps = 0.0;
  HARMONY_ASSIGN_OR_RETURN(
      const ArrivalTrace trace,
      GenerateArrivalTrace(world->data.mixture,
                           ArrivalSpecOf(probe.w, rc.smoke ? 0.5 : 2.0,
                                         StreamSeed(rc.seed, 41))));
  const ServingSchedule sched = BuildServingSchedule(trace, PolicyOf(probe.w));
  LogStats no_writes;
  PhaseSummary not_reported;
  return DriveTimeline(probe, world->engine.get(), trace, sched,
                       rc.workdir + "/serve_probe.log", st, &no_writes,
                       &not_reported);
}

Status RunFoldAndMergeProbe(const RunContext& rc, World* world,
                            size_t* max_delta_rows) {
  HarmonyEngine* engine = world->engine.get();
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  qspec.seed = StreamSeed(rc.seed, 51);
  HARMONY_ASSIGN_OR_RETURN(const QueryWorkload rows,
                           GenerateQueries(world->data.mixture, qspec));
  rc.tracer->set_recording(true);
  Status status = Status::OK();
  for (size_t i = 0; i < rows.queries.size() && status.ok(); ++i) {
    status = engine->InsertVectors(
        DatasetView(rows.queries.Row(i), 1, rows.queries.dim()));
    *max_delta_rows = std::max(*max_delta_rows, engine->pending_delta_rows());
    if (status.ok()) {
      ScopedSpan span(rc.tracer, "core", "FoldSnapshot");
      status = engine->AcquireSnapshot().status();
    }
  }
  if (status.ok()) {
    ScopedSpan span(rc.tracer, "core", "MergeUpdates");
    status = engine->MergeUpdates();
  }
  rc.tracer->set_recording(false);
  return status;
}

}  // namespace wallclock
}  // namespace harmony
