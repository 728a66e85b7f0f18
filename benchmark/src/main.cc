// harmony_benchmark: runs one wall-clock workload and reports its metrics.
//
//   harmony_benchmark --workload <name> --seed <n> [--seconds <s>]
//                     [--trace <file>] [--smoke] [--result <file>]
//                     [--workdir <dir>]
//
// Prints every metric as "name value unit" (end-to-end metrics always,
// per-layer metrics with --trace), writes the result JSON to --result, and
// exits 1 when a correctness check fails. --trace also writes the spans as
// Chrome trace-event JSON and prints a per-layer self-time table.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/kernel_tune.h"
#include "loops.h"
#include "probes.h"
#include "report.h"
#include "trace.h"
#include "util/timer.h"
#include "workload/ground_truth.h"
#include "workload/queries.h"
#include "world.h"

namespace harmony {
namespace wallclock {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  std::string trace_path;
  bool smoke = false;
  std::string result_path;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace_path = argv[++i];
    } else if (flag == "--result" && has_value) {
      args->result_path = argv[++i];
    } else if (flag == "--workdir" && has_value) {
      args->workdir = argv[++i];
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// The smoke variant: a tenth of the data, one set-up, a one-second phase.
Workload Smoke(Workload w) {
  w.scale *= 0.1;
  w.pool_queries = std::min<size_t>(w.pool_queries, 100);
  w.batch_queries = std::min<size_t>(w.batch_queries, 50);
  w.merge_every_s = 0.4;
  return w;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Index bytes (blocks, codes, client tables, delta, tombstones) per byte
/// of live float rows.
double SpaceAmp(const HarmonyEngine& engine) {
  const MemoryStats mem = engine.IndexMemory();
  const double stored =
      static_cast<double>(mem.index_bytes_total + mem.client_bytes +
                          mem.delta_bytes_total + mem.tombstone_bytes);
  const double live = static_cast<double>(engine.index().num_vectors() +
                                          engine.pending_delta_rows() -
                                          engine.tombstone_count());
  return stored / (live * static_cast<double>(engine.index().dim()) *
                   sizeof(float));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Derives the per-layer metrics from the run's spans and counters.
void AddLayerMetrics(const Tracer& tracer, size_t phase_begin,
                     size_t phase_end, bool socket, const PhaseSummary& phase,
                     const ProbeCounts& probe, const TimelineStats& serve,
                     const std::vector<double>& write_ms, const LogStats& log,
                     size_t delta_rows_max, Report* report) {
  auto ms = [&](const char* name) { return tracer.DurationsMs(name); };
  // Request-path spans of the measured phase only (probes reuse the names).
  auto phase_ms = [&](const char* name) {
    return tracer.DurationsMs(name, phase_begin, phase_end);
  };
  auto median = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    report->AddLayer(name, value, unit);
  };

  const double scan_s = Sum(ms("index.ScanBlock")) * 1e-3;
  add("index.scan_rows_per_s", ratio(probe.scan_rows, scan_s), "1/s");
  add("index.scan_gb_per_s", ratio(probe.scan_bytes * 1e-9, scan_s), "GB/s");
  add("index.rerank_us_per_chain",
      Mean(ms("index.RerankChainCandidates")) * 1e3, "us");
  add("index.ivf_build_s", median(ms("index.IvfTrainAdd")) * 1e-3, "s");

  add("core.engine_build_s", median(ms("core.BuildFromIndex")) * 1e-3, "s");
  add("core.snapshot_ms", median(phase_ms("core.AcquireSnapshot")), "ms");
  add("core.route_ms", median(phase_ms("core.RouteBatch")), "ms");
  add("core.context_ms", Mean(ms("core.MakeExecContext")), "ms");
  add("core.prewarm_us_per_query", Mean(ms("core.PrewarmQuery")) * 1e3, "us");
  add("core.exec_ms",
      median(phase_ms(socket ? "net.ExecuteSocket" : "core.ExecuteThreaded")),
      "ms");
  add("core.chains_per_query", Mean(phase.chains_per_query), "count");
  add("core.candidates_per_query", Mean(phase.candidates_per_query), "count");
  add("core.bytes_streamed_per_query", Mean(phase.bytes_per_query), "bytes");
  add("core.survivor_frac", probe.survivor_frac, "ratio");
  add("core.model_qps_log_error", probe.model_qps_log_error, "ln");
  add("core.float_twin_exec_ms", Mean(ms("core.FloatTwinSearch")), "ms");
  add("core.snapshot_fold_ms", median(ms("core.FoldSnapshot")), "ms");
  add("core.insert_us", Mean(ms("core.InsertVectors")) * 1e3, "us");
  add("core.delete_us", Mean(ms("core.DeleteVectors")) * 1e3, "us");
  add("core.merge_ms_max", Max(ms("core.MergeUpdates")), "ms");
  add("core.delta_rows_max", static_cast<double>(delta_rows_max), "count");

  add("net.cluster_spawn_us", median(ms("net.ThreadedCluster")) * 1e3, "us");
  add("net.hop_us", median(ms("net.PostBarrier")) * 1e3, "us");
  add("net.rpc_ping_us", median(ms("net.Ping")) * 1e3, "us");
  add("net.rpc_us",
      ratio(Sum(ms("net.SearchBatchOverSockets")) * 1e3, probe.socket_rpcs),
      "us");
  add("net.rpcs_per_query", ratio(probe.socket_rpcs, probe.socket_queries),
      "count");
  add("net.rpc_codec_us", Mean(ms("net.StageScanCodec")) * 1e3, "us");
  add("net.rpc_request_kb", ratio(probe.request_bytes / 1024.0, probe.requests),
      "KB");

  add("serve.group_size_mean", Mean(serve.group_size), "count");
  add("serve.exec_ms_p50", median(serve.group_ms), "ms");
  add("serve.exec_ms_p99", Quantile(serve.group_ms, 0.99), "ms");
  add("serve.queue_ms_p99", Quantile(serve.queue_ms, 0.99), "ms");
  add("serve.utilization", ratio(serve.busy_s, serve.wall_s), "ratio");
  add("serve.gen_late_ms_p99", Quantile(serve.gen_late_ms, 0.99), "ms");
  add("serve.shed", static_cast<double>(serve.shed), "count");
  add("serve.degraded", static_cast<double>(serve.degraded), "count");

  add("storage.write_ack_ms_p50", median(write_ms), "ms");
  const std::vector<double> save_ms = ms("storage.UpdateLog.Save");
  add("storage.log_save_ms_p50", median(save_ms), "ms");
  add("storage.log_save_ms_p99", Quantile(save_ms, 0.99), "ms");
  add("storage.log_write_amp", ratio(log.file_bytes, log.user_bytes), "ratio");
  add("storage.log_records_max", static_cast<double>(log.max_records),
      "count");

  add("trace.overhead_pct",
      (ratio(phase.traced_batch_ms, phase.untraced_batch_ms) - 1.0) * 100.0,
      "%");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<MetricValue>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string WorkloadJson(const Workload& w) {
  auto num = [](const char* key, double v) {
    return std::string("\"") + key + "\": " + JsonNumber(v);
  };
  std::string out = "{\"name\": " + JsonString(w.name);
  out += std::string(", \"loop\": ") +
         (w.loop == LoopKind::kClosed ? "\"closed\"" : "\"open\"");
  out += std::string(", \"backend\": ") +
         (w.backend == BackendKind::kThreaded ? "\"threaded\"" : "\"socket\"");
  for (const auto& field :
       {num("scale", w.scale), num("nlist", static_cast<double>(w.nlist)),
        num("ivf_train_rows", static_cast<double>(w.ivf_train_rows)),
        num("pq", w.pq ? 1 : 0),
        num("pq_subspaces", static_cast<double>(w.pq_subspaces)),
        num("pq_bits", static_cast<double>(w.pq_bits)),
        num("rerank_depth", static_cast<double>(w.rerank_depth)),
        num("pq_train_iters", static_cast<double>(w.pq_train_iters)),
        num("pipeline", w.pipeline ? 1 : 0), num("k", static_cast<double>(w.k)),
        num("nprobe", static_cast<double>(w.nprobe)),
        num("query_zipf", w.query_zipf),
        num("pool_queries", static_cast<double>(w.pool_queries)),
        num("batch_queries", static_cast<double>(w.batch_queries)),
        num("latency_limit_ms", w.latency_limit_ms),
        num("recall_floor", w.recall_floor),
        num("tenants", static_cast<double>(w.tenants)),
        num("tenant_zipf", w.tenant_zipf), num("burst", w.burst),
        num("offered_qps", w.offered_qps), num("update_qps", w.update_qps),
        num("delete_frac", w.delete_frac),
        num("max_group", static_cast<double>(w.max_group)),
        num("linger_ms", w.linger_ms),
        num("executors", static_cast<double>(w.executors)),
        num("est_query_ms", w.est_query_ms),
        num("est_dispatch_ms", w.est_dispatch_ms),
        num("degraded_nprobe", static_cast<double>(w.degraded_nprobe)),
        num("merge_every_s", w.merge_every_s),
        num("machines", static_cast<double>(kMachines)),
        num("warmup_iterations", static_cast<double>(kWarmupIterations)),
        num("setup_repetitions", static_cast<double>(kSetupRepetitions)),
        num("write_probe_ops", static_cast<double>(kWriteProbeOps)),
        num("write_probe_rate", kWriteProbeRate),
        num("socket_workers", static_cast<double>(kSocketWorkers))}) {
    out += ", " + field;
  }
  return out + "}";
}

Status WriteResult(const std::string& path, const Args& args,
                   const Workload& w, const KernelTuneTable& tune,
                   const std::vector<double>& setup_samples,
                   const Report& report) {
  std::string out = "{\n";
  out += "  \"workload\": " + JsonString(w.name) + ",\n";
  out += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  out += "  \"seconds\": " + JsonNumber(args.seconds) + ",\n";
  out += std::string("  \"smoke\": ") + (args.smoke ? "true" : "false") + ",\n";
  out += std::string("  \"traced\": ") +
         (args.trace_path.empty() ? "false" : "true") + ",\n";
  out += "  \"host\": {\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "},\n";
  out += "  \"kernel\": {\"tier\": " +
         JsonString(std::string(KernelTierName(tune.tier))) +
         ", \"tune\": " + JsonString(tune.ToString()) + "},\n";
  out += "  \"params\": " + WorkloadJson(w) + ",\n";
  out += "  \"setup_s_samples\": [";
  for (size_t i = 0; i < setup_samples.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(setup_samples[i]);
  }
  out += "],\n";
  out += std::string("  \"correct\": ") +
         (report.correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(report.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(report.failed) + ",\n";
  out += "  \"checks\": [";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    const Check& c = report.checks[i];
    out += std::string(i == 0 ? "" : ", ") +
           "{\"name\": " + JsonString(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + JsonString(c.detail) + "}";
  }
  out += "],\n";
  out += "  \"end_to_end\": " + MetricsJson(report.end_to_end) + ",\n";
  out += "  \"per_layer\": " + MetricsJson(report.per_layer) + "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !wrote) {
    return Status::IoError("cannot write " + path);
  }
  return Status::OK();
}

void PrintMetrics(const std::vector<MetricValue>& metrics) {
  for (const MetricValue& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Runs the workload; a returned error is recorded as a failed check.
Status Run(RunContext* rc, Report* report,
           std::vector<double>* setup_samples) {
  const Workload& w = rc->w;
  Tracer* tracer = rc->tracer;
  const bool closed = w.loop == LoopKind::kClosed;

  // Closed loops: the seeded query pool and its exact ground truth, both
  // outside setup_s (the base data is regenerated identically by set-up).
  Dataset pool;
  std::vector<std::vector<Neighbor>> gt;
  if (closed) {
    HARMONY_ASSIGN_OR_RETURN(const BenchData base, MakeBaseData(w));
    QueryWorkloadSpec qspec;
    qspec.num_queries = w.pool_queries;
    qspec.zipf_theta = w.query_zipf;
    qspec.seed = StreamSeed(rc->seed, 1);
    HARMONY_ASSIGN_OR_RETURN(QueryWorkload queries,
                             GenerateQueries(base.mixture, qspec));
    pool = std::move(queries.queries);
    HARMONY_ASSIGN_OR_RETURN(
        gt, ComputeGroundTruth(base.mixture.vectors.View(), pool.View(), w.k,
                               Metric::kL2, kSetupThreads));
  }

  std::unique_ptr<World> world;
  const size_t reps = rc->smoke ? 1 : kSetupRepetitions;
  for (size_t rep = 0; rep < reps; ++rep) {
    world.reset();
    tracer->set_recording(rc->traced);
    StopWatch watch;
    Result<World> built = BuildWorld(w, rc->workdir, tracer);
    setup_samples->push_back(watch.ElapsedSeconds());
    tracer->set_recording(false);
    HARMONY_RETURN_NOT_OK(built.status());
    world = std::make_unique<World>(std::move(built).value());
  }

  PhaseSummary phase;
  TimelineStats timeline;
  LogStats log;
  const size_t phase_begin = tracer->spans().size();
  if (closed) {
    HARMONY_RETURN_NOT_OK(RunClosedLoop(*rc, world.get(), pool, gt, report,
                                        &phase));
  } else {
    HARMONY_RETURN_NOT_OK(RunOpenLoop(*rc, world.get(), report, &phase,
                                      &timeline, &log));
  }
  const size_t phase_end = tracer->spans().size();
  const double space_amp = SpaceAmp(*world->engine);

  ProbeCounts probe;
  if (rc->traced) {
    tracer->set_recording(true);
    const Status probed = RunRequestProbes(*rc, world.get(), phase, &probe);
    tracer->set_recording(false);
    HARMONY_RETURN_NOT_OK(probed);
    if (closed) {
      HARMONY_RETURN_NOT_OK(RunServeProbe(*rc, world.get(), &timeline));
      report->attempted += timeline.offered;
      report->failed += timeline.failures + timeline.shed + timeline.degraded;
    }
  }
  // The socket workers read the engine; stop them before anything writes.
  world->sockets.reset();

  // Closed loops write only in the traced run, after everything else: a
  // paced write probe, then snapshot folds and one merge.
  TimelineStats write_probe;
  size_t delta_rows_max = timeline.max_delta_rows;
  if (closed && rc->traced) {
    HARMONY_RETURN_NOT_OK(RunWriteProbe(*rc, world.get(), &write_probe, &log));
    report->attempted += write_probe.write_ms.size() + write_probe.failures;
    report->failed += write_probe.failures;
    delta_rows_max = write_probe.max_delta_rows;
    HARMONY_RETURN_NOT_OK(
        RunFoldAndMergeProbe(*rc, world.get(), &delta_rows_max));
  }
  report->AddEndToEnd("space_amp", space_amp, "ratio");
  report->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->AddEndToEnd("setup_s", Quantile(*setup_samples, 0.5), "s");
  if (rc->traced) {
    AddLayerMetrics(*tracer, phase_begin, phase_end,
                    w.backend == BackendKind::kSocket, phase, probe, timeline,
                    closed ? write_probe.write_ms : timeline.write_ms, log,
                    delta_rows_max, report);
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: harmony_benchmark --workload <name> --seed <n> "
                 "[--seconds <s>] [--trace <file>] [--smoke] "
                 "[--result <file>] [--workdir <dir>]\n");
    return 2;
  }
  RunContext rc;
  bool found = false;
  for (const Workload& w : AllWorkloads()) {
    if (w.name == args.workload) {
      rc.w = w;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.smoke) {
    rc.w = Smoke(rc.w);
    args.seconds = std::min(args.seconds, 1.0);
  }
  rc.seed = args.seed;
  rc.seconds = args.seconds;
  rc.smoke = args.smoke;
  rc.traced = !args.trace_path.empty();
  rc.workdir = args.workdir;
  Tracer tracer;
  rc.tracer = &tracer;

  // The autotuner stays live; its resolution is part of the result header.
  const KernelTuneTable& tune = ResolveKernelTune(KernelTier::kAuto);
  std::printf("# workload %s seed %llu seconds %g kernel %s\n",
              rc.w.name.c_str(), static_cast<unsigned long long>(rc.seed),
              rc.seconds, tune.ToString().c_str());

  Report report;
  std::vector<double> setup_samples;
  const Status run = Run(&rc, &report, &setup_samples);
  if (!run.ok()) report.AddCheck("run", false, run.ToString());

  for (const Check& c : report.checks) {
    std::printf("# check %s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  PrintMetrics(report.end_to_end);
  if (rc.traced) {
    PrintMetrics(report.per_layer);
    std::printf("# %-8s %8s %12s %12s\n", "layer", "calls", "total_ms",
                "self_ms");
    for (const LayerTime& t : tracer.SelfTimes()) {
      std::printf("# %-8s %8zu %12.3f %12.3f\n", t.layer.c_str(), t.calls,
                  t.total_ms, t.self_ms);
    }
    const Status wrote = tracer.WriteChromeJson(args.trace_path);
    if (!wrote.ok()) report.AddCheck("trace_written", false, wrote.ToString());
  }
  if (!args.result_path.empty()) {
    const Status wrote = WriteResult(args.result_path, args, rc.w, tune,
                                     setup_samples, report);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace wallclock
}  // namespace harmony

int main(int argc, char** argv) { return harmony::wallclock::Main(argc, argv); }
