// The default harmony_cli mode: the simulated batch report, then the serving
// frontend (--serve) and the real-thread replay (--threaded) when asked.

#include <algorithm>
#include <cstdio>

#include "cli.h"
#include "index/kernel_tune.h"
#include "serve/serving.h"
#include "workload/ground_truth.h"

namespace harmony::cli {
namespace {

Status RunServe(const CliArgs& args, const World& world,
                HarmonyEngine* engine) {
  if (world.mixture.component_centers.empty()) {
    return Status::InvalidArgument(
        "--serve needs a stand-in dataset (not --base files)");
  }
  ServingOptions sopts;
  sopts.k = args.k;
  sopts.nprobe = args.nprobe;
  sopts.degraded_nprobe = std::max<size_t>(1, args.nprobe / 4);
  HARMONY_ASSIGN_OR_RETURN(
      sopts.policy, CalibrateServePolicy(engine, world.queries.View(), args.k,
                                         args.nprobe));
  sopts.policy.on_late =
      args.serve_shed ? LatePolicy::kShed : LatePolicy::kDegrade;
  const double capacity_qps = static_cast<double>(sopts.policy.executors) /
                              sopts.policy.est_query_seconds;

  ArrivalSpec spec;
  spec.num_queries = args.serve_queries;
  spec.num_tenants = args.serve_tenants;
  spec.offered_qps = args.serve_qps > 0.0 ? args.serve_qps : capacity_qps;
  spec.burst_factor = args.serve_burst;
  spec.slo_seconds = args.serve_slo_ms > 0.0
                         ? args.serve_slo_ms * 1e-3
                         : 8.0 * sopts.policy.est_query_seconds *
                               static_cast<double>(sopts.policy.max_group);
  spec.seed = args.serve_seed;
  spec.update_rate = args.update_rate;
  spec.delete_frac = args.delete_frac;
  HARMONY_ASSIGN_OR_RETURN(const ArrivalTrace trace,
                           GenerateArrivalTrace(world.mixture, spec));

  ServingFrontend frontend(engine, sopts);
  HARMONY_ASSIGN_OR_RETURN(const ServingReport sim,
                           frontend.RunSimulated(trace));
  std::printf("\nserving (sim)  : offered %.0f qps, slo %.2f ms, "
              "%zu tenants, burst %.1f\n",
              spec.offered_qps, spec.slo_seconds * 1e3, spec.num_tenants,
              spec.burst_factor);
  std::printf("schedule       : %s fingerprint=%016llx\n",
              sim.schedule.ToString().c_str(),
              static_cast<unsigned long long>(sim.schedule.Fingerprint()));
  std::printf("stats          : %s\n", sim.stats.ToString().c_str());
  if (spec.update_rate > 0.0) {
    std::printf("updates (sim)  : %zu inserts, %zu deletes applied; "
                "pending delta rows %zu, tombstones %zu, "
                "log head/tail %s/%s\n",
                sim.inserts_applied, sim.deletes_applied,
                engine->pending_delta_rows(), engine->tombstone_count(),
                engine->update_log().head().ToString().c_str(),
                engine->update_log().tail().ToString().c_str());
    HARMONY_RETURN_NOT_OK(engine->MergeUpdates());
    std::printf("merge          : generation %llu, %zu vectors frozen, "
                "log head advanced to %s\n",
                static_cast<unsigned long long>(engine->generation()),
                engine->index().num_vectors(),
                engine->update_log().head().ToString().c_str());
  }
  if (args.threaded) {
    HARMONY_ASSIGN_OR_RETURN(const ServingReport thr,
                             frontend.RunThreaded(trace));
    std::printf("serving (thr)  : %s\n", thr.stats.ToString().c_str());
    std::printf("schedule parity: %s\n",
                thr.schedule.Fingerprint() == sim.schedule.Fingerprint()
                    ? "identical decisions on both backends"
                    : "MISMATCH (determinism bug)");
  }
  return Status::OK();
}

/// Prints the fault stats, with the degraded queries' recall when known.
template <class Output>
void PrintDegraded(const char* label, FaultStats faults, const Output& out,
                   const Result<std::vector<std::vector<Neighbor>>>& gt,
                   size_t k) {
  if (gt.ok()) {
    faults.degraded_recall =
        RecallOverFlagged(out.results, out.degraded, gt.value(), k);
  }
  std::printf("%s: %zu/%zu queries, %s\n", label, faults.degraded_queries,
              out.results.size(), faults.ToString().c_str());
}

}  // namespace

Status RunSearch(const CliArgs& args) {
  HARMONY_ASSIGN_OR_RETURN(World world, BuildWorld(args, /*announce=*/true));
  const HarmonyOptions& options = world.options;
  const DatasetView queries = world.queries.View();
  // The tier every scan stage runs, with its tile constants.
  std::printf("kernels: tier=%s\n",
              ResolveKernelTune(options.kernel_tier).ToString().c_str());
  if (options.use_pq_streams) {
    std::printf("pq streams: M=%zu bits=%zu rerank_depth=%zu\n",
                options.pq_subspaces, options.pq_bits, options.rerank_depth);
  }
  if (options.faults.enabled()) {
    std::printf("fault plan: %s\n", options.faults.ToString().c_str());
  }
  if (options.replication_factor > 1) {
    std::printf("replication: R=%zu failover=%s hedge_after=%.2f\n",
                options.replication_factor,
                options.enable_failover ? "on" : "off", options.hedge_after);
  }

  HarmonyEngine engine(options);
  if (!args.load_index.empty()) {
    HARMONY_ASSIGN_OR_RETURN(IvfIndex index, IvfIndex::Load(args.load_index));
    HARMONY_RETURN_NOT_OK(engine.BuildFromIndex(std::move(index)));
  } else {
    HARMONY_RETURN_NOT_OK(engine.Build(world.base.View()));
  }
  if (!args.save_index.empty()) {
    HARMONY_RETURN_NOT_OK(engine.index().Save(args.save_index));
    std::printf("index saved to %s\n", args.save_index.c_str());
  }
  std::printf("plan: %s\n", engine.plan().ToString().c_str());
  std::printf("build: train=%.3fs add=%.3fs pre-assign=%.3fs\n",
              engine.build_stats().train_seconds,
              engine.build_stats().add_seconds,
              engine.build_stats().preassign_seconds);

  HARMONY_ASSIGN_OR_RETURN(const BatchResult result,
                           engine.SearchBatch(queries, args.k, args.nprobe));
  if (args.explain) {
    std::printf("planner:\n%s", engine.last_plan_choice().Explain().c_str());
  }

  const auto gt = ComputeGroundTruth(world.base.View(), queries, args.k,
                                     options.ivf.metric);
  const auto recall = [&](const auto& out) {
    return gt.ok() ? MeanRecallAtK(out.results, gt.value(), args.k) : -1.0;
  };
  const BatchStats& stats = result.stats;
  std::printf("\nmode=%s nodes=%zu nlist=%zu nprobe=%zu k=%zu\n",
              ModeToString(options.mode), options.num_machines,
              options.ivf.nlist, args.nprobe, args.k);
  std::printf("recall@%zu      : %.4f\n", args.k, recall(result));
  std::printf("virtual QPS    : %.0f\n", stats.qps);
  std::printf("makespan       : %.3f ms\n", stats.makespan_seconds * 1e3);
  std::printf("comp/comm/other: %.3f / %.3f / %.3f ms\n",
              stats.breakdown.compute_seconds * 1e3,
              stats.breakdown.comm_seconds * 1e3,
              stats.breakdown.other_seconds * 1e3);
  std::printf("prune per slice: ");
  for (size_t p = 0; p < stats.prune.dropped_after.size(); ++p) {
    std::printf("%.1f%% ", 100.0 * stats.prune.PruneRatioAt(p));
  }
  std::printf("(avg %.1f%%)\n", 100.0 * stats.prune.AveragePruneRatio());
  std::printf("per-node index : %.2f MB max, peak query %.2f MB\n",
              static_cast<double>(stats.memory.index_bytes_max_node) / 1e6,
              static_cast<double>(stats.memory.peak_query_bytes) / 1e6);
  if (options.use_pq_streams) {
    std::printf("pq streams     : code %.2f MB stored, %.3f / %.3f MB "
                "streamed compressed\n",
                static_cast<double>(stats.memory.index_code_bytes) / 1e6,
                static_cast<double>(stats.breakdown.total_bytes_compressed) /
                    1e6,
                static_cast<double>(stats.breakdown.total_bytes_streamed) /
                    1e6);
  }
  if (options.faults.enabled()) {
    PrintDegraded("degraded       ", stats.faults, result, gt, args.k);
  }

  if (args.serve) HARMONY_RETURN_NOT_OK(RunServe(args, world, &engine));

  if (args.threaded) {
    HARMONY_ASSIGN_OR_RETURN(
        const ThreadedOutput thr,
        engine.SearchBatchThreaded(queries, args.k, args.nprobe));
    std::printf("threaded engine: recall@%zu %.4f, wall %.3fs\n", args.k,
                recall(thr), thr.wall_seconds);
    if (options.faults.enabled()) {
      PrintDegraded("threaded degr. ", thr.faults, thr, gt, args.k);
    }
  }
  return Status::OK();
}

}  // namespace harmony::cli
