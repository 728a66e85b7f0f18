// Real-socket worker transport modes (--worker / --workers / --socket-smoke).
// Every process builds the SAME engine from the same flags (the build is
// deterministic), so separately started workers and frontends hold
// bit-identical stores and the digest handshake passes without any state
// transfer. Flags the socket backend cannot run fail at its scope gates.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "cli.h"
#include "net/remote_worker.h"
#include "net/socket_backend.h"
#include "net/socket_transport.h"

namespace harmony::cli {
namespace {

/// BuildWorld plus the bitwise-parity alignment across backends
/// (docs/execution.md): the same dim-block order and accumulation grouping.
Result<World> BuildSocketWorld(const CliArgs& args) {
  HARMONY_ASSIGN_OR_RETURN(World world, BuildWorld(args, /*announce=*/false));
  world.options.enable_pipeline = false;
  world.options.pipeline_batch = 1 << 20;
  return world;
}

bool BitwiseEqual(const std::vector<std::vector<Neighbor>>& a,
                  const std::vector<std::vector<Neighbor>>& b) {
  const auto same = [](const Neighbor& x, const Neighbor& y) {
    return x.id == y.id && std::bit_cast<uint32_t>(x.distance) ==
                               std::bit_cast<uint32_t>(y.distance);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(), same);
                    });
}

/// Serves `engine` as one worker on `addr` until a shutdown frame arrives.
Status ServeWorker(HarmonyEngine* engine, const SocketWorkerOptions& wopts,
                   const SocketAddr& addr, bool announce) {
  SocketWorker worker(engine, wopts);
  HARMONY_RETURN_NOT_OK(worker.Init());
  HARMONY_ASSIGN_OR_RETURN(SocketListener listener,
                           SocketListener::Listen(addr));
  if (announce) {
    std::printf("worker %u/%u serving on %s\n", wopts.worker_id,
                wopts.num_workers, addr.ToString().c_str());
    std::fflush(stdout);
  }
  return worker.Serve(&listener, nullptr);
}

Result<std::vector<SocketAddr>> ParseWorkerList(const std::string& csv) {
  std::vector<SocketAddr> addrs;
  std::istringstream in(csv);
  for (std::string spec; std::getline(in, spec, ',');) {
    if (spec.empty()) continue;
    HARMONY_ASSIGN_OR_RETURN(const SocketAddr addr, ParseSocketAddr(spec));
    addrs.push_back(addr);
  }
  if (addrs.empty()) return Status::InvalidArgument("empty --workers list");
  return addrs;
}

/// Dials + handshakes `engine`'s digest, waiting out worker processes that
/// are still building their engines and so have not bound their addresses.
Status ConnectWithRetry(SocketFrontend* net, HarmonyEngine* engine,
                        const std::vector<SocketAddr>& addrs) {
  HARMONY_ASSIGN_OR_RETURN(
      const WorkerHello expect,
      MakeEngineHello(engine, 0, static_cast<uint32_t>(addrs.size())));
  for (int waited = 0;; waited += 100) {
    const Status st = net->Connect(addrs, expect);
    if (st.ok() || st.code() == StatusCode::kFailedPrecondition ||
        waited >= 15000) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// The smoke's forked worker processes: killed, reaped and their socket
/// paths removed however the smoke ends.
struct Fleet {
  std::vector<SocketAddr> addrs;
  std::vector<pid_t> pids;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Forks a child that exits with 0 when `body` succeeds, 1 otherwise.
  Status Spawn(const std::function<Status()>& body) {
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) _exit(body().ok() ? 0 : 1);
    pids.push_back(pid);
    return Status::OK();
  }

  ~Fleet() {
    for (const pid_t pid : pids) {
      if (pid > 0 && kill(pid, SIGKILL) == 0) waitpid(pid, nullptr, 0);
    }
    for (const SocketAddr& a : addrs) unlink(a.path.c_str());
  }
};

}  // namespace

Status RunWorker(const CliArgs& args) {
  HARMONY_ASSIGN_OR_RETURN(const World world, BuildSocketWorld(args));
  HARMONY_ASSIGN_OR_RETURN(const SocketAddr addr,
                           ParseSocketAddr(args.listen_addr));
  HarmonyEngine engine(world.options);
  HARMONY_RETURN_NOT_OK(engine.Build(world.base.View()));
  SocketWorkerOptions wopts;
  wopts.worker_id = static_cast<uint32_t>(args.worker_id);
  wopts.num_workers = static_cast<uint32_t>(args.num_workers);
  HARMONY_RETURN_NOT_OK(ServeWorker(&engine, wopts, addr, /*announce=*/true));
  std::printf("worker %zu: shutdown frame received, exiting\n",
              args.worker_id);
  return Status::OK();
}

Status RunFrontend(const CliArgs& args) {
  HARMONY_ASSIGN_OR_RETURN(const World world, BuildSocketWorld(args));
  HARMONY_ASSIGN_OR_RETURN(const std::vector<SocketAddr> addrs,
                           ParseWorkerList(args.workers_csv));
  HarmonyEngine engine(world.options);
  HARMONY_RETURN_NOT_OK(engine.Build(world.base.View()));
  const DatasetView queries = world.queries.View();
  HARMONY_ASSIGN_OR_RETURN(
      const ThreadedOutput thr,
      engine.SearchBatchThreaded(queries, args.k, args.nprobe));
  SocketFrontend net((SocketFrontendOptions()));
  HARMONY_RETURN_NOT_OK(ConnectWithRetry(&net, &engine, addrs));
  HARMONY_ASSIGN_OR_RETURN(
      const ThreadedOutput sock,
      SearchBatchOverSockets(&engine, &net, queries, args.k, args.nprobe));
  const bool bitwise = BitwiseEqual(sock.results, thr.results);
  const SocketNetStats& stats = net.stats();
  std::printf("socket backend : %zu workers, rpcs=%llu reconnects=%llu "
              "failures=%llu dead=%llu bytes=%.2f MB\n",
              addrs.size(), static_cast<unsigned long long>(stats.rpcs),
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.rpc_failures),
              static_cast<unsigned long long>(stats.workers_marked_dead),
              static_cast<double>(sock.bytes_streamed) / 1e6);
  std::printf("socket parity  : %s (degraded %zu/%zu)\n",
              bitwise ? "bitwise identical to in-process threaded engine"
                      : "MISMATCH (determinism bug)",
              sock.faults.degraded_queries, queries.size());
  if (args.shutdown_workers) net.ShutdownWorkers();
  if (!bitwise) return Status::Internal("socket parity mismatch");
  return Status::OK();
}

Status RunSocketSmoke(const CliArgs& args) {
  HARMONY_ASSIGN_OR_RETURN(World world, BuildSocketWorld(args));
  world.options.replication_factor = 2;  // absorb the kill, degrade nothing
  HarmonyEngine engine(world.options);
  HARMONY_RETURN_NOT_OK(engine.Build(world.base.View()));
  // Pending updates give the crash-restart path real replay work.
  const DatasetView extra(world.base.Row(0), 3, world.base.dim());
  HARMONY_RETURN_NOT_OK(engine.InsertVectors(extra));
  HARMONY_RETURN_NOT_OK(engine.DeleteVectors({1}));
  const DatasetView queries = world.queries.View();
  HARMONY_ASSIGN_OR_RETURN(
      const ThreadedOutput baseline,
      engine.SearchBatchThreaded(queries, args.k, args.nprobe));

  // Forked after build + baseline, the workers inherit the exact engine
  // state copy-on-write. Worker 1 carries a deterministic kill switch.
  Fleet fleet;
  SocketWorkerOptions wopts;
  wopts.num_workers = 2;
  wopts.poll_ms = 100;
  wopts.kill_is_exit = true;
  for (uint32_t w = 0; w < 2; ++w) {
    fleet.addrs.emplace_back().path = "/tmp/harmony_smoke_" +
                                      std::to_string(getpid()) + "_" +
                                      std::to_string(w) + ".sock";
    wopts.worker_id = w;
    wopts.faults.kill_after_frames = w == 1 ? 6 : 0;
    HARMONY_RETURN_NOT_OK(fleet.Spawn([&] {
      return ServeWorker(&engine, wopts, fleet.addrs[w], /*announce=*/false);
    }));
  }
  std::printf("socket smoke   : 2 worker processes on unix sockets, R=2\n");

  SocketFrontendOptions fopts;
  fopts.rpc_deadline_ms = 5000;
  fopts.max_attempts = 2;
  SocketFrontend net(fopts);
  HARMONY_RETURN_NOT_OK(ConnectWithRetry(&net, &engine, fleet.addrs));

  HARMONY_ASSIGN_OR_RETURN(
      const ThreadedOutput run,
      SearchBatchOverSockets(&engine, &net, queries, args.k, args.nprobe));
  if (!BitwiseEqual(run.results, baseline.results) ||
      run.faults.degraded_queries != 0 ||
      net.stats().workers_marked_dead != 1) {
    return Status::Internal("kill run: want bitwise parity, 0 degraded "
                            "queries and 1 dead worker");
  }
  std::printf("parity         : bitwise identical to in-process threaded "
              "engine\n");
  int wstatus = 0;
  const pid_t killed = std::exchange(fleet.pids[1], -1);  // reaped here
  if (waitpid(killed, &wstatus, 0) != killed || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != SocketWorker::kKillExitCode) {
    return Status::Internal("worker 1 did not die with the kill exit code");
  }
  std::printf("kill           : worker 1 exited %d mid-run; failovers=%zu "
              "degraded=0\n",
              SocketWorker::kKillExitCode, run.faults.failovers);

  // Crash-restart recovery: a cold child rebuilds from the spec, replays
  // the frontend's update log to the pinned generation, and rejoins.
  wopts.faults.kill_after_frames = 0;
  HARMONY_RETURN_NOT_OK(fleet.Spawn([&] {
    HarmonyEngine restarted(world.options);
    HARMONY_RETURN_NOT_OK(restarted.Build(world.base.View()));
    HARMONY_RETURN_NOT_OK(restarted.ReplayUpdates(engine.update_log()));
    return ServeWorker(&restarted, wopts, fleet.addrs[1], /*announce=*/false);
  }));
  for (int waited = 0; waited < 30000; waited += 100) {
    HARMONY_RETURN_NOT_OK(net.ReconnectDead());
    if (net.workers_dead() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  HARMONY_ASSIGN_OR_RETURN(
      const ThreadedOutput after,
      SearchBatchOverSockets(&engine, &net, queries, args.k, args.nprobe));
  if (net.workers_dead() != 0 ||
      !BitwiseEqual(after.results, baseline.results) ||
      after.faults.degraded_queries != 0 || after.faults.failovers != 0) {
    return Status::Internal("post-rejoin run: want bitwise parity and no "
                            "dead workers, degraded queries or failovers");
  }
  std::printf("rejoin         : restart + update-log replay rejoined; second "
              "batch bitwise identical\n");
  net.ShutdownWorkers();
  std::printf("socket smoke   : PASS\n");
  return Status::OK();
}

}  // namespace harmony::cli
