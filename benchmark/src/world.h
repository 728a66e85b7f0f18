#ifndef HARMONY_BENCHMARK_WORLD_H_
#define HARMONY_BENCHMARK_WORLD_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/remote_worker.h"
#include "net/socket_backend.h"
#include "trace.h"
#include "util/status.h"
#include "workload/datasets.h"
#include "workloads.h"

namespace harmony {
namespace wallclock {

/// The frontend plus kSocketWorkers in-process worker threads, each serving
/// the engine's store snapshot on its own unix-domain socket. Workers share
/// the frontend's engine read-only, so the engine must not be mutated while
/// the topology runs.
class SocketTopology {
 public:
  /// Listens on `dir`/w<i>.sock, starts the worker threads and connects the
  /// frontend (hello handshake included).
  static Result<std::unique_ptr<SocketTopology>> Start(HarmonyEngine* engine,
                                                       const std::string& dir);
  /// Shuts the workers down, joins their threads, reports any worker that
  /// stopped on an error, and removes the sockets.
  ~SocketTopology();

  SocketTopology(const SocketTopology&) = delete;
  SocketTopology& operator=(const SocketTopology&) = delete;

  SocketFrontend* frontend() { return &frontend_; }

 private:
  SocketTopology() = default;

  std::vector<SocketAddr> addrs_;
  std::vector<std::unique_ptr<SocketWorker>> workers_;
  std::vector<SocketListener> listeners_;
  SocketFrontend frontend_;
  std::atomic<bool> stop_{false};
  std::vector<Status> served_;  ///< Each worker's Serve result, after join.
  std::vector<std::thread> threads_;
};

/// One workload's base data, index and engine.
struct World {
  BenchData data;
  std::unique_ptr<HarmonyEngine> engine;
  std::unique_ptr<SocketTopology> sockets;  ///< Socket backend only.
};

/// The engine configuration of `w` (float streams unless `pq` and `w.pq`).
HarmonyOptions EngineOptions(const Workload& w, const StandInSpec& spec,
                             bool pq);

/// The deterministic base data of `w` (no queries of the run's seed).
Result<BenchData> MakeBaseData(const Workload& w);

/// Set-up as timed by setup_s: base data, IVF train + add, engine build
/// (PQ training included) and, for the socket backend, worker start and
/// connect. `workdir` holds the worker sockets.
Result<World> BuildWorld(const Workload& w, const std::string& workdir,
                         Tracer* tracer);

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_WORLD_H_
