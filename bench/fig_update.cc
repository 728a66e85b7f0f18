// Mutable-store update sweep: recall and tail latency vs update rate
// (docs/mutability.md).
//
// For each update rate a deterministic serving trace with a second
// Poisson op class (inserts + deletes, delete_frac of the stream) is
// replayed on the virtual-clock backend against a fresh engine. The bench
// records, per point:
//  * p95 latency with the update stream riding the SLO lanes, then again
//    after a rank-barrier merge (same query workload, frozen store);
//  * recall@10 against exact ground truth over the *live* set (base rows
//    minus deletes plus inserts) before and after the merge — the
//    acceptance contract: the drift across a merge stays within 0.005;
//  * the pre-merge delta overhead (delta-shard bytes, tombstone bitset
//    bytes) relative to the frozen store.
//
// Emits BENCH_update.json (tools/run_benches.sh refreshes it).

#include <benchmark/benchmark.h>

#include <algorithm>
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
  double update_rate = 0.0;
  double delete_frac = 0.0;
  size_t num_queries = 0;
  size_t base_rows = 0;
  size_t inserts_applied = 0;
  size_t deletes_applied = 0;
  size_t pending_delta_rows = 0;
  uint64_t delta_bytes = 0;
  uint64_t tombstone_bytes = 0;
  uint64_t index_bytes = 0;
  double recall_before = 0.0;
  double recall_after = 0.0;
  double p95_before = 0.0;
  double p95_after = 0.0;
  double p50_before = 0.0;
  double p50_after = 0.0;
  uint64_t generation = 0;
};

std::vector<Row>& Rows() {
  static auto& rows = *new std::vector<Row>();
  return rows;
}

/// recall@10 of a pinned batch against exact ground truth over the live
/// set. Ground-truth row indices are remapped through `live_ids` back to
/// global ids before comparison.
double LiveRecall(HarmonyEngine* engine, const BenchWorld& world,
                  const Dataset& live, const std::vector<int64_t>& live_ids,
                  size_t k, size_t nprobe) {
  auto gt = ComputeGroundTruth(live.View(),
                               world.data.workload.queries.View(), k,
                               Metric::kL2);
  HARMONY_CHECK_MSG(gt.ok(), gt.status().ToString());
  std::vector<std::vector<Neighbor>> truth = std::move(gt).value();
  for (std::vector<Neighbor>& q : truth) {
    for (Neighbor& n : q) n.id = live_ids[static_cast<size_t>(n.id)];
  }
  auto out =
      engine->SearchBatchPinned(world.data.workload.queries.View(), k, nprobe);
  HARMONY_CHECK_MSG(out.ok(), out.status().ToString());
  return MeanRecallAtK(out.value().results, truth, k);
}

void UpdatePoint(benchmark::State& state, const std::string& dataset,
                 double rate_factor, double delete_frac) {
  constexpr size_t kMachines = 4;
  constexpr size_t kK = 10;
  constexpr size_t kNprobe = 8;
  const BenchWorld& world = GetWorld(dataset, /*zipf=*/0.0);
  // Fresh engine per point: the update stream mutates it, so the shared
  // engine cache must not see these points.
  std::unique_ptr<HarmonyEngine> engine =
      MakeEngine(MakeOptions(world, Mode::kHarmony, kMachines), world);
  const size_t base_rows = engine->IdSpan();

  ServingOptions sopts;
  sopts.k = kK;
  sopts.nprobe = kNprobe;
  sopts.degraded_nprobe = 2;
  auto policy = CalibrateServePolicy(
      engine.get(), world.data.workload.queries.View(), kK, kNprobe);
  HARMONY_CHECK_MSG(policy.ok(), policy.status().ToString());
  sopts.policy = policy.value();
  const double capacity_qps = static_cast<double>(sopts.policy.executors) /
                              sopts.policy.est_query_seconds;

  ArrivalSpec spec;
  spec.num_queries = 256;
  spec.num_tenants = 4;
  // Sub-critical query load so the p95 movement isolates the update
  // stream's lane interference rather than queueing collapse.
  spec.offered_qps = 0.5 * capacity_qps;
  spec.zipf_theta = 0.9;
  spec.slo_seconds = 8.0 * sopts.policy.est_query_seconds *
                     static_cast<double>(sopts.policy.max_group);
  spec.seed = 42;
  // The update rate is swept as a multiple of the query rate so points are
  // comparable across calibrated capacities.
  spec.update_rate = rate_factor * spec.offered_qps;
  spec.delete_frac = delete_frac;
  auto trace = GenerateArrivalTrace(world.data.mixture, spec);
  HARMONY_CHECK_MSG(trace.ok(), trace.status().ToString());

  Row row;
  row.dataset = dataset;
  row.update_rate = spec.update_rate;
  row.delete_frac = delete_frac;
  row.num_queries = spec.num_queries;
  row.base_rows = base_rows;

  for (auto _ : state) {
    ServingFrontend frontend(engine.get(), sopts);
    auto before = frontend.RunSimulated(trace.value());
    HARMONY_CHECK_MSG(before.ok(), before.status().ToString());
    row.inserts_applied = before.value().inserts_applied;
    row.deletes_applied = before.value().deletes_applied;
    row.p95_before = before.value().stats.latency_p95_seconds;
    row.p50_before = before.value().stats.latency_p50_seconds;

    // Pre-merge overhead: pending delta shards + tombstone bitset.
    row.pending_delta_rows = engine->pending_delta_rows();
    const MemoryStats mem = engine->IndexMemory();
    row.delta_bytes = mem.delta_bytes_total;
    row.tombstone_bytes = mem.tombstone_bytes;
    row.index_bytes = mem.index_bytes_total;

    // Live set: base rows minus tombstoned ids plus the applied inserts
    // (insert i of the replay holds global id base_rows + i and row i of
    // the trace's update_vectors — sequential assignment in apply order).
    std::vector<int64_t> live_ids;
    Dataset live(std::vector<float>(), world.data.mixture.vectors.dim());
    for (size_t gid = 0; gid < engine->IdSpan(); ++gid) {
      if (engine->IsDeleted(static_cast<int64_t>(gid))) continue;
      const float* vec =
          gid < base_rows
              ? world.data.mixture.vectors.Row(gid)
              : trace.value().update_vectors.Row(gid - base_rows);
      HARMONY_CHECK(live.Append(vec, live.dim()).ok());
      live_ids.push_back(static_cast<int64_t>(gid));
    }
    row.recall_before =
        LiveRecall(engine.get(), world, live, live_ids, kK, kNprobe);

    HARMONY_CHECK(engine->MergeUpdates().ok());
    row.generation = engine->generation();
    row.recall_after =
        LiveRecall(engine.get(), world, live, live_ids, kK, kNprobe);

    // Post-merge tail latency: the identical query workload (the update
    // stream draws from its own RNG, so an updates-off trace carries the
    // same arrivals and schedule) against the frozen merged store.
    ArrivalSpec frozen = spec;
    frozen.update_rate = 0.0;
    auto trace2 = GenerateArrivalTrace(world.data.mixture, frozen);
    HARMONY_CHECK_MSG(trace2.ok(), trace2.status().ToString());
    ServingFrontend frontend2(engine.get(), sopts);
    auto after = frontend2.RunSimulated(trace2.value());
    HARMONY_CHECK_MSG(after.ok(), after.status().ToString());
    row.p95_after = after.value().stats.latency_p95_seconds;
    row.p50_after = after.value().stats.latency_p50_seconds;
  }
  Rows().push_back(row);

  state.counters["recall_before_merge"] = row.recall_before;
  state.counters["recall_after_merge"] = row.recall_after;
  state.counters["recall_drift"] = row.recall_after - row.recall_before;
  state.counters["p95_before_ms"] = row.p95_before * 1e3;
  state.counters["p95_after_ms"] = row.p95_after * 1e3;
  state.counters["delta_overhead_pct"] =
      row.index_bytes > 0
          ? 100.0 * static_cast<double>(row.delta_bytes + row.tombstone_bytes) /
                static_cast<double>(row.index_bytes)
          : 0.0;
}

void RegisterAll() {
  const std::string dataset = "sift1m";
  // rate_factor = updates per query; 0 is the frozen-store control point.
  for (const double factor : {0.0, 0.5, 2.0, 8.0}) {
    std::string name =
        "fig_update/" + dataset + "/rate_x:" + std::to_string(factor);
    benchmark::RegisterBenchmark(name.c_str(), UpdatePoint, dataset, factor,
                                 /*delete_frac=*/0.3)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Delete-heavy spot check: tombstone filtering dominates the delta scan.
  benchmark::RegisterBenchmark(
      ("fig_update/" + dataset + "/rate_x:2.000000/deletes:0.9").c_str(),
      UpdatePoint, dataset, 2.0, /*delete_frac=*/0.9)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for write\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_update\",\n"
               "  \"note\": \"epoch-versioned mutable store: inserts buffer "
               "into delta shards and deletes tombstone at the rank barrier "
               "until a merge rebuilds the grid blocks; recall is measured "
               "against exact ground truth over the live set before and "
               "after the merge, p95 on the virtual-clock serving backend "
               "with updates sharing the SLO lanes\",\n"
               "  \"results\": [");
  bool first = true;
  for (const Row& r : Rows()) {
    std::fprintf(
        f,
        "%s\n    {\"dataset\": \"%s\", \"update_rate_qps\": %.1f, "
        "\"delete_frac\": %.2f, \"num_queries\": %zu, \"base_rows\": %zu, "
        "\"inserts_applied\": %zu, \"deletes_applied\": %zu, "
        "\"pending_delta_rows\": %zu, \"delta_bytes\": %llu, "
        "\"tombstone_bytes\": %llu, \"index_bytes\": %llu, "
        "\"delta_overhead_pct\": %.3f, "
        "\"recall_at_10_before_merge\": %.4f, "
        "\"recall_at_10_after_merge\": %.4f, \"recall_drift\": %.4f, "
        "\"p95_seconds_before_merge\": %.6f, "
        "\"p95_seconds_after_merge\": %.6f, "
        "\"p50_seconds_before_merge\": %.6f, "
        "\"p50_seconds_after_merge\": %.6f, \"generation\": %llu}",
        first ? "" : ",", r.dataset.c_str(), r.update_rate, r.delete_frac,
        r.num_queries, r.base_rows, r.inserts_applied, r.deletes_applied,
        r.pending_delta_rows, static_cast<unsigned long long>(r.delta_bytes),
        static_cast<unsigned long long>(r.tombstone_bytes),
        static_cast<unsigned long long>(r.index_bytes),
        r.index_bytes > 0
            ? 100.0 *
                  static_cast<double>(r.delta_bytes + r.tombstone_bytes) /
                  static_cast<double>(r.index_bytes)
            : 0.0,
        r.recall_before, r.recall_after, r.recall_after - r.recall_before,
        r.p95_before, r.p95_after, r.p50_before, r.p50_after,
        static_cast<unsigned long long>(r.generation));
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
  harmony::bench::WriteJson("BENCH_update.json");
  return 0;
}
