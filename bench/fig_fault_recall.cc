// Fault-tolerance figure (extension beyond the paper): recall and degraded
// fraction as a function of injected fault severity.
//
// Two sweeps on the 4-node Harmony grid:
//  * drop-prob sweep — per-message drop probability from 0 to 0.5 with a
//    2-retry budget; recall should stay near the healthy value until the
//    loss rate pushes past the retry budget, then fall off gracefully;
//  * crashed-node sweep — kill 1..3 of the 4 machines from t=0; every
//    query still answers, recall decays roughly with the surviving fraction
//    of the grid.
//
// Counters: recall_at_10 (all queries), degraded_recall (degraded queries
// only; -1 when none), degraded_frac, blocks_lost, shards_lost, retries,
// failovers, hedged.
//
// A third sweep (availability, PR 5) crosses the drop-prob axis with grid
// replication factor R in {1, 2, 3}: at R >= 2, failover routing absorbs
// losses that R = 1 surfaces as degraded queries — the degraded fraction
// stays at zero far past the R = 1 knee, at the cost of R-fold stored
// blocks. One crashed node is included so failover is exercised against a
// dead machine, not just unlucky coins.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/fault.h"
#include "net/remote_worker.h"
#include "net/socket_backend.h"
#include "net/socket_transport.h"

namespace harmony {
namespace bench {
namespace {

/// One benchmark point, collected for BENCH_fault.json.
struct Row {
  std::string dataset;
  std::string backend = "sim";
  uint64_t rpcs = 0;
  uint64_t workers_killed = 0;
  double drop_prob = 0.0;
  size_t crashed_nodes = 0;
  size_t replication = 1;
  size_t num_queries = 0;
  double recall = 0.0;
  double degraded_recall = -1.0;
  double degraded_frac = 0.0;
  uint64_t blocks_lost = 0;
  uint64_t shards_lost = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t hedged = 0;
  double qps = 0.0;
};

std::vector<Row>& Rows() {
  static auto& rows = *new std::vector<Row>();
  return rows;
}

/// Engine cache keyed also by replication factor: the shared GetEngine
/// cache is (world, mode, machines) and replication changes the stored
/// blocks, so replicated engines need their own slots.
HarmonyEngine* GetReplicatedEngine(const BenchWorld& world, size_t machines,
                                   size_t replication) {
  std::ostringstream key;
  key << &world << "/harmony/" << machines << "/R" << replication;
  auto& cache = internal::Cache<HarmonyEngine>();
  if (auto it = cache.find(key.str()); it != cache.end()) {
    return it->second.get();
  }
  HarmonyOptions opts = MakeOptions(world, Mode::kHarmony, machines);
  opts.replication_factor = replication;
  return cache.emplace(key.str(), MakeEngine(opts, world)).first->second.get();
}

void FaultPointOn(benchmark::State& state, const std::string& dataset,
                  const FaultPlan& plan, HarmonyEngine* engine,
                  size_t replication, size_t nprobe) {
  const BenchWorld& world = GetWorld(dataset);
  engine->SetFaultPlan(plan);
  BatchResult batch;
  for (auto _ : state) {
    auto result = engine->SearchBatch(world.data.workload.queries.View(),
                                      /*k=*/10, nprobe);
    HARMONY_CHECK_MSG(result.ok(), result.status().ToString());
    batch = std::move(result).value();
  }
  // The engine is cached across points: restore the fault-free plan so
  // later benches (or other registrations) see a healthy engine.
  engine->SetFaultPlan(FaultPlan{});
  const auto& gt = GetGroundTruth(world, 10);

  size_t degraded = 0;
  for (const uint8_t flag : batch.degraded) degraded += flag != 0;
  Row row;
  row.dataset = dataset;
  row.drop_prob = plan.drop_prob;
  row.crashed_nodes = plan.crashes.size();
  row.replication = replication;
  row.num_queries = batch.degraded.size();
  row.recall = MeanRecallAtK(batch.results, gt, 10);
  row.degraded_recall = RecallOverFlagged(batch.results, batch.degraded, gt,
                                          10);
  row.degraded_frac =
      batch.degraded.empty()
          ? 0.0
          : static_cast<double>(degraded) /
                static_cast<double>(batch.degraded.size());
  row.blocks_lost = batch.stats.faults.blocks_lost;
  row.shards_lost = batch.stats.faults.shards_lost;
  row.retries = batch.stats.faults.retries;
  row.failovers = batch.stats.faults.failovers;
  row.hedged = batch.stats.faults.hedged;
  row.qps = batch.stats.qps;
  Rows().push_back(row);

  state.counters["recall_at_10"] = row.recall;
  state.counters["degraded_recall"] = row.degraded_recall;
  state.counters["degraded_frac"] = row.degraded_frac;
  state.counters["blocks_lost"] = static_cast<double>(row.blocks_lost);
  state.counters["shards_lost"] = static_cast<double>(row.shards_lost);
  state.counters["retries"] = static_cast<double>(row.retries);
  state.counters["failovers"] = static_cast<double>(row.failovers);
  state.counters["hedged"] = static_cast<double>(row.hedged);
  state.counters["qps"] = row.qps;
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for write\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_fault\",\n"
               "  \"note\": \"recall/degraded fraction vs injected faults; "
               "the replication rows sweep grid replication factor R with "
               "one node crashed — at R >= 2 failover keeps the degraded "
               "fraction at zero\",\n"
               "  \"results\": [");
  bool first = true;
  for (const Row& r : Rows()) {
    std::fprintf(
        f,
        "%s\n    {\"dataset\": \"%s\", \"backend\": \"%s\", "
        "\"drop_prob\": %.2f, "
        "\"crashed_nodes\": %zu, \"replication\": %zu, "
        "\"workers_killed\": %llu, "
        "\"num_queries\": %zu, \"recall_at_10\": %.4f, "
        "\"degraded_recall\": %.4f, \"degraded_frac\": %.4f, "
        "\"blocks_lost\": %llu, \"shards_lost\": %llu, \"retries\": %llu, "
        "\"failovers\": %llu, \"hedged\": %llu, \"rpcs\": %llu, "
        "\"qps\": %.2f}",
        first ? "" : ",", r.dataset.c_str(), r.backend.c_str(), r.drop_prob,
        r.crashed_nodes,
        r.replication, static_cast<unsigned long long>(r.workers_killed),
        r.num_queries, r.recall, r.degraded_recall,
        r.degraded_frac, static_cast<unsigned long long>(r.blocks_lost),
        static_cast<unsigned long long>(r.shards_lost),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.failovers),
        static_cast<unsigned long long>(r.hedged),
        static_cast<unsigned long long>(r.rpcs), r.qps);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

void FaultPoint(benchmark::State& state, const std::string& dataset,
                const FaultPlan& plan, size_t machines, size_t nprobe) {
  const BenchWorld& world = GetWorld(dataset);
  FaultPointOn(state, dataset, plan,
               GetEngine(world, Mode::kHarmony, machines), /*replication=*/1,
               nprobe);
}

void ReplicationPoint(benchmark::State& state, const std::string& dataset,
                      const FaultPlan& plan, size_t machines,
                      size_t replication, size_t nprobe) {
  const BenchWorld& world = GetWorld(dataset);
  FaultPointOn(state, dataset, plan,
               GetReplicatedEngine(world, machines, replication), replication,
               nprobe);
}

/// The real-socket transport row: in-process worker serve loops on
/// unix-domain sockets (thread workers, the multi-process topology without
/// fork cost in a bench), a frontend engine bit-identical by construction.
/// With kill_frames > 0 worker 1 hangs up for good after that many frames:
/// at R = 2 failover must absorb the death with zero degraded queries.
void SocketPoint(benchmark::State& state, const std::string& dataset,
                 size_t replication, uint64_t kill_frames, size_t nprobe) {
  const BenchWorld& world = GetWorld(dataset);
  HarmonyOptions opts = MakeOptions(world, Mode::kHarmony, 4);
  opts.replication_factor = replication;
  // Bitwise-parity alignment across backends (docs/execution.md).
  opts.enable_pipeline = false;
  opts.pipeline_batch = 1 << 20;
  HarmonyEngine frontend(opts);
  HARMONY_CHECK(frontend.BuildFromIndex(*world.index).ok());

  constexpr size_t kWorkers = 2;
  std::vector<SocketAddr> addrs(kWorkers);
  std::vector<std::unique_ptr<HarmonyEngine>> engines;
  std::vector<std::unique_ptr<SocketWorker>> workers;
  std::vector<SocketListener> listeners;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  for (size_t w = 0; w < kWorkers; ++w) {
    addrs[w].is_unix = true;
    addrs[w].path = "/tmp/harmony_bench_" + std::to_string(getpid()) + "_" +
                    std::to_string(w) + ".sock";
    engines.push_back(std::make_unique<HarmonyEngine>(opts));
    HARMONY_CHECK(engines.back()->BuildFromIndex(*world.index).ok());
    SocketWorkerOptions wopts;
    wopts.worker_id = static_cast<uint32_t>(w);
    wopts.num_workers = kWorkers;
    wopts.poll_ms = 50;
    if (w == 1) wopts.faults.kill_after_frames = kill_frames;
    workers.push_back(
        std::make_unique<SocketWorker>(engines.back().get(), wopts));
    HARMONY_CHECK(workers.back()->Init().ok());
    auto listener = SocketListener::Listen(addrs[w]);
    HARMONY_CHECK_MSG(listener.ok(), listener.status().ToString());
    listeners.push_back(std::move(listener).value());
  }
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w]() {
      (void)workers[w]->Serve(&listeners[w], &stop);
    });
  }

  auto hello = MakeEngineHello(&frontend, 0, kWorkers);
  HARMONY_CHECK_MSG(hello.ok(), hello.status().ToString());
  SocketFrontendOptions fopts;
  fopts.rpc_deadline_ms = 5000;
  fopts.max_attempts = 2;
  SocketFrontend net(fopts);
  HARMONY_CHECK(net.Connect(addrs, hello.value()).ok());

  ThreadedOutput out;
  for (auto _ : state) {
    auto result = SearchBatchOverSockets(
        &frontend, &net, world.data.workload.queries.View(), /*k=*/10,
        nprobe);
    HARMONY_CHECK_MSG(result.ok(), result.status().ToString());
    out = std::move(result).value();
  }

  net.ShutdownWorkers();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  for (const SocketAddr& a : addrs) unlink(a.path.c_str());

  const auto& gt = GetGroundTruth(world, 10);
  size_t degraded = 0;
  for (const uint8_t flag : out.degraded) degraded += flag != 0;
  Row row;
  row.dataset = dataset;
  row.backend = "socket";
  row.replication = replication;
  row.workers_killed = net.stats().workers_marked_dead;
  row.rpcs = net.stats().rpcs;
  row.num_queries = out.degraded.size();
  row.recall = MeanRecallAtK(out.results, gt, 10);
  row.degraded_recall = RecallOverFlagged(out.results, out.degraded, gt, 10);
  row.degraded_frac = out.degraded.empty()
                          ? 0.0
                          : static_cast<double>(degraded) /
                                static_cast<double>(out.degraded.size());
  row.blocks_lost = out.faults.blocks_lost;
  row.shards_lost = out.faults.shards_lost;
  row.retries = out.faults.retries;
  row.failovers = out.faults.failovers;
  row.hedged = out.faults.hedged;
  row.qps = out.wall_seconds > 0.0
                ? static_cast<double>(row.num_queries) / out.wall_seconds
                : 0.0;
  Rows().push_back(row);

  state.counters["recall_at_10"] = row.recall;
  state.counters["degraded_frac"] = row.degraded_frac;
  state.counters["failovers"] = static_cast<double>(row.failovers);
  state.counters["workers_killed"] = static_cast<double>(row.workers_killed);
  state.counters["rpcs"] = static_cast<double>(row.rpcs);
  state.counters["qps"] = row.qps;
}

void RegisterAll() {
  const size_t kMachines = 4;
  const size_t kNprobe = 4;
  for (const std::string& dataset : {std::string("sift1m"),
                                     std::string("glove1.2m")}) {
    for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.35, 0.5}) {
      FaultPlan plan;
      plan.seed = 1234;
      plan.drop_prob = drop;
      std::ostringstream name;
      name << "fig_fault/" << dataset << "/drop:" << drop;
      benchmark::RegisterBenchmark(name.str().c_str(), FaultPoint, dataset,
                                   plan, kMachines, kNprobe)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    for (size_t dead = 1; dead <= 3; ++dead) {
      FaultPlan plan;
      plan.seed = 1234;
      for (size_t m = 0; m < dead; ++m) {
        plan.crashes.push_back({static_cast<int>(m), 0.0});
      }
      std::ostringstream name;
      name << "fig_fault/" << dataset << "/crashed:" << dead << "of"
           << kMachines;
      benchmark::RegisterBenchmark(name.str().c_str(), FaultPoint, dataset,
                                   plan, kMachines, kNprobe)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }

  // Socket-backend rows: the real transport, fault-free at R = 1 and with
  // a worker killed mid-run at R = 2 (docs/failure_model.md).
  benchmark::RegisterBenchmark("fig_fault/sift1m/socket:R1", SocketPoint,
                               std::string("sift1m"), /*replication=*/1,
                               /*kill_frames=*/0, kNprobe)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig_fault/sift1m/socket:R2-killed", SocketPoint,
                               std::string("sift1m"), /*replication=*/2,
                               /*kill_frames=*/6, kNprobe)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  // Availability sweep: drop_prob x replication factor, with one node
  // crashed from the start so failover runs against a dead machine.
  for (const size_t replication : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.35, 0.5}) {
      FaultPlan plan;
      plan.seed = 1234;
      plan.drop_prob = drop;
      plan.crashes.push_back({0, 0.0});
      std::ostringstream name;
      name << "fig_fault/sift1m/replication:" << replication
           << "/drop:" << drop;
      benchmark::RegisterBenchmark(name.str().c_str(), ReplicationPoint,
                                   std::string("sift1m"), plan, kMachines,
                                   replication, kNprobe)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
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
  harmony::bench::WriteJson("BENCH_fault.json");
  return 0;
}
