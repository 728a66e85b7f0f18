#include "world.h"

#include <unistd.h>

#include <cstdio>
#include <utility>


namespace harmony {
namespace wallclock {

Result<std::unique_ptr<SocketTopology>> SocketTopology::Start(
    HarmonyEngine* engine, const std::string& dir) {
  std::unique_ptr<SocketTopology> topo(new SocketTopology());
  for (size_t w = 0; w < kSocketWorkers; ++w) {
    SocketAddr addr;
    addr.is_unix = true;
    addr.path = dir + "/w" + std::to_string(w) + ".sock";
    SocketWorkerOptions wopts;
    wopts.worker_id = static_cast<uint32_t>(w);
    wopts.num_workers = kSocketWorkers;
    wopts.poll_ms = 50;
    auto worker = std::make_unique<SocketWorker>(engine, wopts);
    HARMONY_RETURN_NOT_OK(worker->Init());
    HARMONY_ASSIGN_OR_RETURN(SocketListener listener,
                             SocketListener::Listen(addr));
    topo->addrs_.push_back(addr);
    topo->workers_.push_back(std::move(worker));
    topo->listeners_.push_back(std::move(listener));
  }
  HARMONY_ASSIGN_OR_RETURN(
      WorkerHello hello,
      MakeEngineHello(engine, 0, static_cast<uint32_t>(kSocketWorkers)));
  topo->served_.assign(kSocketWorkers, Status::OK());
  for (size_t w = 0; w < kSocketWorkers; ++w) {
    SocketTopology* t = topo.get();
    topo->threads_.emplace_back([t, w]() {
      t->served_[w] = t->workers_[w]->Serve(&t->listeners_[w], &t->stop_);
    });
  }
  HARMONY_RETURN_NOT_OK(topo->frontend_.Connect(topo->addrs_, hello));
  return topo;
}

SocketTopology::~SocketTopology() {
  frontend_.ShutdownWorkers();
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  for (const Status& s : served_) {
    if (!s.ok()) {
      std::fprintf(stderr, "socket worker: %s\n", s.ToString().c_str());
    }
  }
  for (const SocketAddr& a : addrs_) unlink(a.path.c_str());
}

HarmonyOptions EngineOptions(const Workload& w, const StandInSpec& spec,
                             bool pq) {
  HarmonyOptions opts;
  opts.mode = Mode::kHarmony;
  opts.num_machines = kMachines;
  opts.ivf.nlist = w.nlist;
  opts.ivf.seed = spec.seed;
  opts.ivf.max_train_points = w.ivf_train_rows;
  opts.ivf.train_threads = kSetupThreads;
  opts.enable_pipeline = w.pipeline;
  if (!w.pipeline) opts.pipeline_batch = size_t{1} << 20;
  opts.use_pq_streams = pq && w.pq;
  opts.pq_subspaces = w.pq_subspaces;
  opts.pq_bits = w.pq_bits;
  opts.rerank_depth = w.rerank_depth;
  opts.pq_train_iters = w.pq_train_iters;
  return opts;
}

Result<BenchData> MakeBaseData(const Workload& w) {
  HARMONY_ASSIGN_OR_RETURN(StandInSpec spec, GetStandIn("sift1m"));
  return MakeStandIn(spec, w.scale, /*zipf_theta=*/0.0);
}

Result<World> BuildWorld(const Workload& w, const std::string& workdir,
                         Tracer* tracer) {
  World world;
  {
    ScopedSpan span(tracer, "workload", "MakeStandIn");
    HARMONY_ASSIGN_OR_RETURN(world.data, MakeBaseData(w));
  }
  const HarmonyOptions opts = EngineOptions(w, world.data.spec, /*pq=*/true);
  IvfIndex index(opts.ivf);
  {
    ScopedSpan span(tracer, "index", "IvfTrainAdd");
    HARMONY_RETURN_NOT_OK(index.Train(world.data.mixture.vectors.View()));
    HARMONY_RETURN_NOT_OK(index.Add(world.data.mixture.vectors.View()));
  }
  {
    ScopedSpan span(tracer, "core", "BuildFromIndex");
    world.engine = std::make_unique<HarmonyEngine>(opts);
    HARMONY_RETURN_NOT_OK(world.engine->BuildFromIndex(std::move(index)));
  }
  if (w.backend == BackendKind::kSocket) {
    ScopedSpan span(tracer, "net", "SocketConnect");
    HARMONY_ASSIGN_OR_RETURN(
        world.sockets, SocketTopology::Start(world.engine.get(), workdir));
  }
  return world;
}

}  // namespace wallclock
}  // namespace harmony
