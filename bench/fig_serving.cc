// Serving saturation curves: offered load vs tail latency under SLO
// admission control (serve/).
//
// For each load point a deterministic multi-tenant Poisson/burst trace is
// generated at a multiple of the frontend's estimated capacity
// (executors / est_query_seconds), scheduled once (decisions are a pure
// function of trace + policy), and replayed on both backends:
//  * sim      — virtual-clock service times, fully reproducible;
//  * threaded — real threads, wall-clock service times anchored to the
//               same dispatch schedule (threaded points use fewer queries
//               and loads to keep the bench quick).
// The est_query_seconds estimate is calibrated from one pinned warm-up
// batch on the virtual clock, so admission control is honest about the
// simulated cost model rather than hand-tuned.
//
// Emits BENCH_serving.json (tools/run_benches.sh refreshes it): per point
// p50/p95/p99, goodput, SLO attainment, shed/timeout rates, Jain fairness.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/serving.h"

namespace harmony {
namespace bench {
namespace {

struct Row {
  std::string dataset;
  std::string backend;
  double load_factor = 0.0;
  double offered_qps = 0.0;
  size_t num_queries = 0;
  size_t num_tenants = 0;
  double slo_seconds = 0.0;
  size_t groups = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double goodput_qps = 0.0;
  double slo_attainment = 0.0;
  double shed_rate = 0.0;
  double timeout_rate = 0.0;
  double jain = 0.0;
  size_t degraded = 0;
  uint64_t schedule_fingerprint = 0;
};

std::vector<Row>& Rows() {
  static auto& rows = *new std::vector<Row>();
  return rows;
}

void ServingPoint(benchmark::State& state, const std::string& dataset,
                  bool threaded, double load_factor, size_t num_queries) {
  constexpr size_t kMachines = 4;
  constexpr size_t kK = 10;
  constexpr size_t kNprobe = 8;
  const BenchWorld& world = GetWorld(dataset, /*zipf=*/0.0);
  HarmonyEngine* engine = GetEngine(world, Mode::kHarmony, kMachines);

  ServingOptions sopts;
  sopts.k = kK;
  sopts.nprobe = kNprobe;
  sopts.degraded_nprobe = 2;
  auto policy = CalibrateServePolicy(
      engine, world.data.workload.queries.View(), kK, kNprobe);
  HARMONY_CHECK_MSG(policy.ok(), policy.status().ToString());
  sopts.policy = policy.value();
  const double capacity_qps = static_cast<double>(sopts.policy.executors) /
                              sopts.policy.est_query_seconds;

  ArrivalSpec spec;
  spec.num_queries = num_queries;
  spec.num_tenants = 6;
  spec.offered_qps = load_factor * capacity_qps;
  spec.zipf_theta = 0.9;
  spec.burst_factor = 1.5;
  spec.mean_burst = 6.0;
  // SLO: a full group's estimated service plus generous queueing headroom.
  spec.slo_seconds = 8.0 * sopts.policy.est_query_seconds *
                     static_cast<double>(sopts.policy.max_group);
  spec.seed = 42;
  auto trace = GenerateArrivalTrace(world.data.mixture, spec);
  HARMONY_CHECK_MSG(trace.ok(), trace.status().ToString());

  ServingFrontend frontend(engine, sopts);
  Result<ServingReport> report = Status::OK();
  for (auto _ : state) {
    report = threaded ? frontend.RunThreaded(trace.value())
                      : frontend.RunSimulated(trace.value());
  }
  HARMONY_CHECK_MSG(report.ok(), report.status().ToString());
  const ServingReport& r = report.value();

  Row row;
  row.dataset = dataset;
  row.backend = threaded ? "threaded" : "sim";
  row.load_factor = load_factor;
  row.offered_qps = spec.offered_qps;
  row.num_queries = spec.num_queries;
  row.num_tenants = spec.num_tenants;
  row.slo_seconds = spec.slo_seconds;
  row.groups = r.schedule.groups.size();
  row.p50 = r.stats.latency_p50_seconds;
  row.p95 = r.stats.latency_p95_seconds;
  row.p99 = r.stats.latency_p99_seconds;
  row.goodput_qps = r.stats.goodput_qps;
  row.slo_attainment = r.stats.slo_attainment;
  row.shed_rate = r.stats.shed_rate;
  row.timeout_rate = r.stats.timeout_rate;
  row.jain = r.stats.jain_fairness;
  row.degraded = r.stats.degraded;
  row.schedule_fingerprint = r.schedule.Fingerprint();
  Rows().push_back(row);

  state.counters["offered_qps"] = row.offered_qps;
  state.counters["goodput_qps"] = row.goodput_qps;
  state.counters["p99_ms"] = row.p99 * 1e3;
  state.counters["slo_attainment"] = row.slo_attainment;
  state.counters["shed_rate"] = row.shed_rate;
}

void Register(const std::string& dataset, bool threaded, double load,
              size_t num_queries) {
  std::string name = "fig_serving/" + dataset + "/" +
                     (threaded ? "threaded" : "sim") +
                     "/load:" + std::to_string(load);
  benchmark::RegisterBenchmark(name.c_str(), ServingPoint, dataset, threaded,
                               load, num_queries)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  const std::string dataset = "sift1m";
  // Simulated saturation sweep: sub-critical through heavy overload.
  for (const double load : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    Register(dataset, /*threaded=*/false, load, /*num_queries=*/512);
  }
  // Threaded spot checks (real threads are slower; fewer queries/points).
  for (const double load : {0.5, 2.0}) {
    Register(dataset, /*threaded=*/true, load, /*num_queries=*/96);
  }
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for write\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_serving\",\n"
               "  \"note\": \"saturation curves under SLO admission control; "
               "sim latencies are virtual-clock (deterministic), threaded "
               "are wall-clock on the same schedule; load_factor is offered "
               "rate over estimated capacity\",\n"
               "  \"results\": [");
  bool first = true;
  for (const Row& r : Rows()) {
    std::fprintf(
        f,
        "%s\n    {\"dataset\": \"%s\", \"backend\": \"%s\", "
        "\"load_factor\": %.2f, \"offered_qps\": %.1f, "
        "\"num_queries\": %zu, \"num_tenants\": %zu, "
        "\"slo_seconds\": %.6f, \"groups\": %zu, "
        "\"p50_seconds\": %.6f, \"p95_seconds\": %.6f, "
        "\"p99_seconds\": %.6f, \"goodput_qps\": %.1f, "
        "\"slo_attainment\": %.4f, \"shed_rate\": %.4f, "
        "\"timeout_rate\": %.4f, \"jain_fairness\": %.4f, "
        "\"degraded\": %zu, \"schedule_fingerprint\": \"%016llx\"}",
        first ? "" : ",", r.dataset.c_str(), r.backend.c_str(), r.load_factor,
        r.offered_qps, r.num_queries, r.num_tenants, r.slo_seconds, r.groups,
        r.p50, r.p95, r.p99, r.goodput_qps, r.slo_attainment, r.shed_rate,
        r.timeout_rate, r.jain, r.degraded,
        static_cast<unsigned long long>(r.schedule_fingerprint));
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace
}  // namespace bench
}  // namespace harmony

int main(int argc, char** argv) {
  harmony::SetLogLevel(harmony::LogLevel::kWarn);
  harmony::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  harmony::bench::WriteJson("BENCH_serving.json");
  return 0;
}
