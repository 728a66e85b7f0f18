// The socket execution backend (net/socket_backend.h) against in-process
// thread workers serving real unix-domain sockets:
//  1. fault-free runs are bitwise identical to both in-process engines
//     (results AND zero degraded) — the third backend joins the parity set;
//  2. the handshake digest rejects a worker whose store diverged (restart
//     without update-log replay), and accepts one that replayed;
//  3. a worker killed mid-run at R = 2 fails over with ZERO degraded
//     queries and unchanged results; at R = 1 the run completes degraded,
//     never hangs;
//  4. deterministic connection-fault runs (torn writes, short reads)
//     complete with either bit-identical results or degraded-tagged
//     queries — never a hang, never a crash;
//  5. ReconnectDead rejoins a restarted-and-replayed worker;
//  6. the serving frontend driven through the BatchExecHook seam produces
//     the identical ServingSchedule fingerprint and bitwise results as the
//     simulated backend;
//  7. a sweep over grouping, pruning, label filter, R, metric and
//     hedge_after matches the threaded engine and the sim bitwise, with
//     equal FaultStats (and bytes, ungrouped and unpruned);
//  8. workers refuse stage scans on a connection without a matching hello;
//  9. with the pipeline stagger on and groups off, R = 2, the socket results
//     are the threaded engine's bit for bit.
// 10. on a 2x2 grid with a query's chains on both shards in one rank (both
//     frontend threads scanning at once), results are bitwise the threaded
//     engine's and the sim's over R, metric and label filter, and survive a
//     worker kill at R = 2 with nothing degraded.

#include "net/socket_backend.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/remote_worker.h"
#include "serve/arrival.h"
#include "serve/serving.h"
#include "test_util.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

/// Bitwise cross-engine parity needs the exec_parity_test alignment
/// preconditions: pipeline off (all backends walk blocks 0..B-1) and one
/// pipeline batch per chain, so float accumulation order matches exactly.
HarmonyOptions BaseOptions(size_t machines = 4, size_t replication = 1) {
  HarmonyOptions opts;
  opts.mode = Mode::kHarmony;
  opts.num_machines = machines;
  opts.ivf.nlist = 8;
  opts.ivf.seed = 7;
  opts.enable_pipeline = false;
  opts.pipeline_batch = 1 << 20;
  opts.replication_factor = replication;
  return opts;
}

void ExpectBitIdentical(const std::vector<std::vector<Neighbor>>& a,
                        const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(a[q][i].distance),
                std::bit_cast<uint32_t>(b[q][i].distance))
          << "query " << q << " rank " << i;
    }
  }
}

/// In-process worker fleet: each worker owns its own engine instance built
/// from the same deterministic spec (so stores are bit-identical to the
/// frontend's) and serves a unix-domain socket on a background thread.
class ThreadWorkerFleet {
 public:
  /// `tag` names the socket paths: fleets sharing a tag serve the same
  /// addresses across restarts (what ReconnectDead dials back into).
  explicit ThreadWorkerFleet(std::string tag) : tag_(std::move(tag)) {}
  ~ThreadWorkerFleet() { Stop(); }

  /// Builds `n` worker engines from `world` with `opts`, applying
  /// `mutate` (may be null) to each before serving — the replay hook.
  /// `kill_worker` (when < n) serves under `kill_faults` — the one that
  /// dies mid-run.
  Status Start(const SmallWorld& world, const HarmonyOptions& opts, size_t n,
               const std::function<Status(HarmonyEngine*)>& mutate = nullptr,
               size_t kill_worker = static_cast<size_t>(-1),
               const SocketFaultPlan& kill_faults = {}) {
    addrs_.clear();
    for (size_t w = 0; w < n; ++w) {
      addrs_.push_back(WorkerAddr(w));
    }
    for (size_t w = 0; w < n; ++w) {
      HARMONY_RETURN_NOT_OK(StartWorker(
          world, opts, w, n, mutate,
          w == kill_worker ? kill_faults : SocketFaultPlan{}));
    }
    return Status::OK();
  }

  /// (Re)starts worker `w` on its known address — the crash-restart path.
  Status StartWorker(const SmallWorld& world, const HarmonyOptions& opts,
                     size_t w, size_t n,
                     const std::function<Status(HarmonyEngine*)>& mutate,
                     const SocketFaultPlan& faults = {}) {
    auto engine = std::make_unique<HarmonyEngine>(opts);
    HARMONY_RETURN_NOT_OK(engine->BuildFromIndex(world.index));
    if (mutate) HARMONY_RETURN_NOT_OK(mutate(engine.get()));
    SocketWorkerOptions wopts;
    wopts.worker_id = static_cast<uint32_t>(w);
    wopts.num_workers = static_cast<uint32_t>(n);
    wopts.poll_ms = 50;
    wopts.faults = faults;
    wopts.kill_is_exit = false;  // thread mode: hang up, don't _exit
    auto worker = std::make_unique<SocketWorker>(engine.get(), wopts);
    HARMONY_RETURN_NOT_OK(worker->Init());
    HARMONY_ASSIGN_OR_RETURN(SocketListener listener,
                             SocketListener::Listen(addrs_[w]));
    auto listener_ptr = std::make_unique<SocketListener>(std::move(listener));
    threads_.emplace_back(
        [worker = worker.get(), listener = listener_ptr.get(), this] {
          (void)worker->Serve(listener, &stop_);
        });
    engines_.push_back(std::move(engine));
    workers_.push_back(std::move(worker));
    listeners_.push_back(std::move(listener_ptr));
    return Status::OK();
  }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    for (auto& l : listeners_) l->Close();
    for (size_t w = 0; w < addrs_.size(); ++w) {
      unlink(addrs_[w].path.c_str());
    }
  }

  const std::vector<SocketAddr>& addrs() const { return addrs_; }

 private:
  SocketAddr WorkerAddr(size_t w) const {
    SocketAddr addr;
    addr.is_unix = true;
    addr.path = "/tmp/harmony_bk_" + std::to_string(getpid()) + "_" + tag_ +
                "_" + std::to_string(w) + ".sock";
    return addr;
  }

  std::string tag_;
  std::vector<SocketAddr> addrs_;
  std::vector<std::unique_ptr<HarmonyEngine>> engines_;
  std::vector<std::unique_ptr<SocketWorker>> workers_;
  std::vector<std::unique_ptr<SocketListener>> listeners_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

TEST(SocketBackendTest, FaultFreeRunMatchesBothInProcessEnginesBitwise) {
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 16);
  HarmonyEngine frontend(BaseOptions());
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());

  ThreadWorkerFleet fleet("parity");
  ASSERT_TRUE(fleet.Start(world, BaseOptions(), 2).ok());

  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto sock = SearchBatchOverSockets(&frontend, &net,
                                     world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(sock.ok()) << sock.status();
  auto thr = frontend.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(thr.ok()) << thr.status();
  auto sim = frontend.SearchBatchPinned(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(sim.ok()) << sim.status();

  ExpectBitIdentical(sock.value().results, thr.value().results);
  ExpectBitIdentical(sock.value().results, sim.value().results);
  for (const uint8_t d : sock.value().degraded) EXPECT_EQ(d, 0);
  EXPECT_EQ(sock.value().faults.degraded_queries, 0u);
  EXPECT_EQ(sock.value().faults.failovers, 0u);
  EXPECT_GT(sock.value().bytes_streamed, 0u);
  EXPECT_GT(net.stats().rpcs, 0u);
  EXPECT_EQ(net.stats().workers_marked_dead, 0u);
  net.ShutdownWorkers();
}

TEST(SocketBackendTest, PingAndScopeGates) {
  SmallWorld world = MakeSmallWorld(1200, 16, 4, 8, 8);
  HarmonyEngine frontend(BaseOptions());
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());

  ThreadWorkerFleet fleet("gates");
  ASSERT_TRUE(fleet.Start(world, BaseOptions(), 2).ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());
  EXPECT_TRUE(net.Ping(0).ok());
  EXPECT_TRUE(net.Ping(1).ok());

  // Modeled message-level fault plans belong to sim/threaded; the socket
  // backend rejects them loudly instead of silently ignoring the plan.
  {
    HarmonyOptions opts = BaseOptions();
    opts.faults.drop_prob = 0.1;
    opts.faults.seed = 3;
    HarmonyEngine faulty(opts);
    ASSERT_TRUE(faulty.BuildFromIndex(world.index).ok());
    auto out = SearchBatchOverSockets(&faulty, &net,
                                      world.workload.queries.View(), 10, 4);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
  // PQ streams need lookup tables on the wire: not supported over sockets.
  {
    auto snap = frontend.AcquireSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status();
    ExecOptions exec = frontend.BuildExecOptions(10, 4);
    exec.use_pq_streams = true;
    const BatchRouting routing = RouteBatch(
        frontend.index(), frontend.plan(), world.workload.queries.View(), 4, 1);
    auto out = ExecuteSocket(frontend.index(), frontend.plan(),
                             *snap.value().stores, frontend.prewarm_cache(),
                             routing, world.workload.queries.View(), exec,
                             &net);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kNotSupported);
  }
  net.ShutdownWorkers();

  // Hedging is decided by modeled straggler multipliers; without a modeled
  // FaultPlan (which sockets reject) no stage hedges, so a hedge_after
  // config runs and matches the threaded engine with nothing hedged.
  HarmonyOptions opts = BaseOptions(4, 2);
  opts.hedge_after = 1.5;
  HarmonyEngine hedged(opts);
  ASSERT_TRUE(hedged.BuildFromIndex(world.index).ok());
  ThreadWorkerFleet fleet2("gates2");
  ASSERT_TRUE(fleet2.Start(world, opts, 2).ok());
  auto expect2 = MakeEngineHello(&hedged, 0, 2);
  ASSERT_TRUE(expect2.ok()) << expect2.status();
  SocketFrontend net2;
  ASSERT_TRUE(net2.Connect(fleet2.addrs(), expect2.value()).ok());
  auto sock = SearchBatchOverSockets(&hedged, &net2,
                                     world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(sock.ok()) << sock.status();
  auto thr = hedged.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(thr.ok()) << thr.status();
  ExpectBitIdentical(sock.value().results, thr.value().results);
  EXPECT_EQ(sock.value().faults.hedged, 0u);
  EXPECT_EQ(thr.value().faults.hedged, 0u);
  net2.ShutdownWorkers();
}

TEST(SocketBackendTest, WorkerRejectsStageScanBeforeHandshake) {
  SmallWorld world = MakeSmallWorld(1200, 16, 4, 8, 8);
  HarmonyEngine engine(BaseOptions());
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
  SocketWorkerOptions wopts;
  wopts.num_workers = 1;
  wopts.poll_ms = 50;
  SocketWorker worker(&engine, wopts);
  ASSERT_TRUE(worker.Init().ok());

  auto pair = MakeChannelPair(3);
  ASSERT_TRUE(pair.ok()) << pair.status();
  SocketChannel client = std::move(pair.value().first);
  SocketChannel server = std::move(pair.value().second);
  std::atomic<bool> stop{false};
  std::thread serving([&] { (void)worker.ServeChannel(&server, &stop); });
  // Stops the serve loop even when an assertion returns early.
  struct StopOnExit {
    std::atomic<bool>* stop;
    std::thread* serving;
    ~StopOnExit() {
      stop->store(true);
      if (serving->joinable()) serving->join();
    }
  } stop_on_exit{&stop, &serving};

  // A well-formed scan of zero candidates: valid for any built engine.
  StageScanRequest req;
  req.width = static_cast<uint32_t>(engine.plan().dim_ranges[0].width());
  req.q_slice.assign(req.width, 0.5f);
  std::vector<uint32_t> scan;
  EncodeStageScanRequest(req, &scan);
  const auto call = [&client](uint16_t op, const std::vector<uint32_t>& p) {
    EXPECT_TRUE(client.Send(op, p).ok());
    return client.Recv();
  };

  // Before the handshake: refused with kFailedPrecondition...
  auto early = call(kOpStageScan, scan);
  ASSERT_TRUE(early.ok()) << early.status();
  ASSERT_EQ(early.value().op, kOpError);
  EXPECT_EQ(DecodeErrorStatus(early.value().payload).code(),
            StatusCode::kFailedPrecondition);
  // ...while pings need no handshake...
  auto pong = call(kOpPing, {});
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong.value().op, kOpPong);
  // ...and a mismatched hello does not open the gate.
  WorkerHello wrong = worker.hello();
  wrong.digest ^= 1;
  std::vector<uint32_t> hello;
  EncodeHello(wrong, &hello);
  auto rejected = call(kOpHello, hello);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected.value().op, kOpError);
  auto still_early = call(kOpStageScan, scan);
  ASSERT_TRUE(still_early.ok()) << still_early.status();
  EXPECT_EQ(still_early.value().op, kOpError);

  // After a matching hello the same scan is served.
  EncodeHello(worker.hello(), &hello);
  auto ack = call(kOpHello, hello);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack.value().op, kOpHelloAck);
  auto served = call(kOpStageScan, scan);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served.value().op, kOpStageResult);

  ASSERT_TRUE(client.Send(kOpShutdown, nullptr, 0).ok());
  serving.join();
  EXPECT_TRUE(worker.shutdown_received());
}

void ExpectSameFaults(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.blocks_lost, b.blocks_lost);
  EXPECT_EQ(a.shards_lost, b.shards_lost);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.hedged, b.hedged);
  EXPECT_EQ(a.degraded_queries, b.degraded_queries);
}

TEST(SocketBackendTest, ParitySweepMatchesThreadedAndSim) {
  // Every backend runs the same ChainExecutor, so over the option matrix
  // the socket results are bitwise the threaded engine's and the sim's,
  // with identical FaultStats up to real transport resends; with pruning
  // and grouping off every chain streams every candidate row, so the byte
  // bills agree too.
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const SmallWorld world = MakeSmallWorld(1500, 32, 8, 8, 12, 0.0, 7, metric);
    const DatasetView queries = world.workload.queries.View();
    std::vector<int32_t> labels(world.index.num_vectors());
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int32_t>(i % 2);
    }
    for (const size_t replication : {size_t{1}, size_t{2}}) {
      HarmonyOptions opts = BaseOptions(4, replication);
      opts.ivf.metric = metric;
      HarmonyEngine frontend(opts);
      ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
      auto snap = frontend.AcquireSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status();
      const std::vector<WorkerStore>& stores = *snap.value().stores;

      ThreadWorkerFleet fleet("sweep" + std::to_string(replication) +
                              (metric == Metric::kL2 ? "l2" : "ip"));
      ASSERT_TRUE(fleet.Start(world, opts, 2).ok());
      auto expect = MakeEngineHello(&frontend, 0, 2);
      ASSERT_TRUE(expect.ok()) << expect.status();
      SocketFrontend net;
      ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

      for (const bool grouping : {false, true}) {
        for (const bool pruning : {false, true}) {
          for (const bool filtered : {false, true}) {
            for (const double hedge_after : {0.0, 1.5}) {
              SCOPED_TRACE(::testing::Message()
                           << "metric=" << MetricToString(metric)
                           << " R=" << replication << " grouping=" << grouping
                           << " pruning=" << pruning
                           << " filtered=" << filtered
                           << " hedge=" << hedge_after);
              ExecOptions exec = frontend.BuildExecOptions(10, 4);
              exec.shared_scans = grouping;
              exec.query_group_size = grouping ? 4 : 1;
              exec.enable_pruning = pruning;
              exec.hedge_after = hedge_after;
              if (filtered) {
                exec.labels = &labels;
                exec.allowed_label = 1;
              }
              const BatchRouting routing =
                  RouteBatch(frontend.index(), frontend.plan(), queries, 4,
                             exec.query_group_size);
              const uint64_t failures_before = net.stats().rpc_failures;
              auto sock = ExecuteSocket(frontend.index(), frontend.plan(),
                                        stores, frontend.prewarm_cache(),
                                        routing, queries, exec, &net);
              ASSERT_TRUE(sock.ok()) << sock.status();
              const uint64_t resends =
                  net.stats().rpc_failures - failures_before;
              auto thr = ExecuteThreaded(frontend.index(), frontend.plan(),
                                         stores, frontend.prewarm_cache(),
                                         routing, queries, exec);
              ASSERT_TRUE(thr.ok()) << thr.status();
              SimCluster cluster(frontend.plan().num_machines);
              auto sim = ExecuteSimulated(frontend.index(), frontend.plan(),
                                          stores, frontend.prewarm_cache(),
                                          routing, queries, exec, &cluster);
              ASSERT_TRUE(sim.ok()) << sim.status();

              ExpectBitIdentical(sock.value().results, thr.value().results);
              ExpectBitIdentical(sock.value().results, sim.value().results);
              ExpectSameFaults(thr.value().faults, sim.value().faults);
              // A real transport may resend a stage RPC (a slow host can
              // tear a frame); the socket books each resend exactly as the
              // in-process engines book a modeled one.
              FaultStats expected = thr.value().faults;
              expected.retries += resends;
              expected.messages_dropped += resends;
              ExpectSameFaults(sock.value().faults, expected);
              EXPECT_EQ(sock.value().degraded, thr.value().degraded);
              if (!pruning && !grouping) {
                EXPECT_EQ(sock.value().bytes_streamed,
                          thr.value().bytes_streamed);
                EXPECT_EQ(sock.value().bytes_streamed,
                          cluster.Breakdown().total_bytes_streamed);
              }
            }
          }
        }
      }
      EXPECT_EQ(net.stats().workers_marked_dead, 0u);
      net.ShutdownWorkers();
    }
  }
}

// The ExecPinnedGoldens.UngroupedStaggerReplicatedDrops configuration minus
// its modeled faults: the pipeline stagger on (every chain walks its own
// rotation of four blocks), no query groups, R = 2. Rotated accumulation
// orders are as deterministic as the aligned one, so the socket results
// are the threaded engine's bit for bit, with or without pruning.
TEST(SocketBackendTest, UngroupedStaggerMatchesThreadedBitwise) {
  const SmallWorld world = MakeSmallWorld(2500, 64, 8, 8, 25);
  const DatasetView queries = world.workload.queries.View();
  HarmonyOptions opts = BaseOptions(4, /*replication=*/2);
  opts.enable_pipeline = true;
  opts.force_b_vec = 1;
  opts.force_b_dim = 4;
  HarmonyEngine frontend(opts);
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
  ASSERT_EQ(frontend.plan().num_dim_blocks, 4u);
  auto snap = frontend.AcquireSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::vector<WorkerStore>& stores = *snap.value().stores;

  ThreadWorkerFleet fleet("stagger");
  ASSERT_TRUE(fleet.Start(world, opts, 2).ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  for (const bool pruning : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "pruning=" << pruning);
    ExecOptions exec = frontend.BuildExecOptions(10, 4);
    exec.shared_scans = false;
    exec.query_group_size = 1;
    exec.enable_pruning = pruning;
    const BatchRouting routing =
        RouteBatch(frontend.index(), frontend.plan(), queries, 4, 1);
    const uint64_t failures_before = net.stats().rpc_failures;
    auto sock = ExecuteSocket(frontend.index(), frontend.plan(), stores,
                              frontend.prewarm_cache(), routing, queries,
                              exec, &net);
    ASSERT_TRUE(sock.ok()) << sock.status();
    const uint64_t resends = net.stats().rpc_failures - failures_before;
    auto thr = ExecuteThreaded(frontend.index(), frontend.plan(), stores,
                               frontend.prewarm_cache(), routing, queries,
                               exec);
    ASSERT_TRUE(thr.ok()) << thr.status();

    ExpectBitIdentical(sock.value().results, thr.value().results);
    EXPECT_EQ(sock.value().degraded, thr.value().degraded);
    FaultStats expected = thr.value().faults;
    expected.retries += resends;
    expected.messages_dropped += resends;
    ExpectSameFaults(sock.value().faults, expected);
    if (!pruning) {
      EXPECT_EQ(sock.value().bytes_streamed, thr.value().bytes_streamed);
    }
  }
  EXPECT_EQ(net.stats().workers_marked_dead, 0u);
  net.ShutdownWorkers();
}

/// The 2x2 grid the concurrency tests run on: two vector shards, two
/// dimension blocks, so every query that probes both shards has a chain on
/// each, and the chains' stages land on both workers.
HarmonyOptions TwoByTwoOptions(size_t replication, Metric metric) {
  HarmonyOptions opts = BaseOptions(4, replication);
  opts.ivf.metric = metric;
  opts.force_b_vec = 2;
  opts.force_b_dim = 2;
  return opts;
}

/// Routes `queries` and moves every chain into probe rank 0. The router
/// gives each of a query's chains its own rank; in one rank a query's
/// chains on both shards run at once on different frontend threads,
/// reading the query's pruning threshold while the other merges into its
/// heap. Monotone pruning makes the merged top-k independent of that
/// interleaving, in every backend.
BatchRouting RouteOneRank(const HarmonyEngine& engine,
                          const DatasetView& queries, size_t nprobe) {
  BatchRouting routing =
      RouteBatch(engine.index(), engine.plan(), queries, nprobe, 1);
  for (QueryChain& chain : routing.chains) chain.probe_rank = 0;
  routing.max_probe_rank = 0;
  return routing;
}

/// True when some query of `routing` has chains on two shards.
bool SomeQueryHasTwoChains(const BatchRouting& routing) {
  std::vector<int> chains(routing.probe_lists.size(), 0);
  for (const QueryChain& chain : routing.chains) {
    if (++chains[static_cast<size_t>(chain.query)] > 1) return true;
  }
  return false;
}

// Over R, metric and the label filter, 20 one-rank batches each: with both
// frontend threads scanning at once and a query's two chains in flight
// together, the socket results are the threaded engine's and the sim's bit
// for bit, with nothing degraded.
TEST(SocketBackendTest, ConcurrentChainsMatchThreadedBitwise) {
  constexpr size_t kBatches = 20;
  constexpr size_t kBatchQueries = 8;
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const SmallWorld world = MakeSmallWorld(
        1200, 16, 8, 8, kBatches * kBatchQueries, 0.0, 11, metric);
    const Dataset& all = world.workload.queries;
    std::vector<int32_t> labels(world.index.num_vectors());
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int32_t>(i % 2);
    }
    for (const size_t replication : {size_t{1}, size_t{2}}) {
      const HarmonyOptions opts = TwoByTwoOptions(replication, metric);
      HarmonyEngine frontend(opts);
      ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
      ASSERT_EQ(frontend.plan().num_vec_shards, 2u);
      ASSERT_EQ(frontend.plan().num_dim_blocks, 2u);
      auto snap = frontend.AcquireSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status();
      const std::vector<WorkerStore>& stores = *snap.value().stores;

      ThreadWorkerFleet fleet("conc" + std::to_string(replication) +
                              (metric == Metric::kL2 ? "l2" : "ip"));
      ASSERT_TRUE(fleet.Start(world, opts, 2).ok());
      auto expect = MakeEngineHello(&frontend, 0, 2);
      ASSERT_TRUE(expect.ok()) << expect.status();
      SocketFrontend net;
      ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

      bool two_chains = false;
      for (const bool filtered : {false, true}) {
        ExecOptions exec = frontend.BuildExecOptions(10, 4);
        if (filtered) {
          exec.labels = &labels;
          exec.allowed_label = 1;
        }
        for (size_t b = 0; b < kBatches; ++b) {
          SCOPED_TRACE(::testing::Message()
                       << "metric=" << MetricToString(metric)
                       << " R=" << replication << " filtered=" << filtered
                       << " batch=" << b);
          const DatasetView queries(all.Row(b * kBatchQueries), kBatchQueries,
                                    all.dim());
          const BatchRouting routing = RouteOneRank(frontend, queries, 4);
          two_chains = two_chains || SomeQueryHasTwoChains(routing);
          auto sock = ExecuteSocket(frontend.index(), frontend.plan(), stores,
                                    frontend.prewarm_cache(), routing,
                                    queries, exec, &net);
          ASSERT_TRUE(sock.ok()) << sock.status();
          auto thr = ExecuteThreaded(frontend.index(), frontend.plan(),
                                     stores, frontend.prewarm_cache(),
                                     routing, queries, exec);
          ASSERT_TRUE(thr.ok()) << thr.status();
          SimCluster cluster(frontend.plan().num_machines);
          auto sim = ExecuteSimulated(frontend.index(), frontend.plan(),
                                      stores, frontend.prewarm_cache(),
                                      routing, queries, exec, &cluster);
          ASSERT_TRUE(sim.ok()) << sim.status();
          ExpectBitIdentical(sock.value().results, thr.value().results);
          ExpectBitIdentical(sock.value().results, sim.value().results);
          EXPECT_EQ(sock.value().faults.degraded_queries, 0u);
          for (const uint8_t d : sock.value().degraded) EXPECT_EQ(d, 0);
        }
      }
      EXPECT_TRUE(two_chains);
      EXPECT_EQ(net.stats().workers_marked_dead, 0u);
      net.ShutdownWorkers();
    }
  }
}

// The same grid at R = 2 with worker 1 killed a few frames in: its stages
// fail over to worker 0 (from either frontend thread) with nothing
// degraded and results bitwise those of the threaded engine.
TEST(SocketBackendTest, ConcurrentChainsSurviveWorkerKillAtR2) {
  const SmallWorld world = MakeSmallWorld(1500, 16, 8, 8, 24, 0.0, 11);
  const DatasetView queries = world.workload.queries.View();
  const HarmonyOptions opts = TwoByTwoOptions(2, Metric::kL2);
  HarmonyEngine frontend(opts);
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
  const PartitionPlan& plan = frontend.plan();
  // Every block keeps a replica on worker 0 (machine % 2 == 0).
  for (size_t s = 0; s < plan.num_vec_shards; ++s) {
    for (size_t d = 0; d < plan.num_dim_blocks; ++d) {
      bool on_worker0 = false;
      for (size_t r = 0; r < plan.replication; ++r) {
        on_worker0 = on_worker0 || plan.ReplicaOf(s, d, r) % 2 == 0;
      }
      ASSERT_TRUE(on_worker0) << "block (" << s << ", " << d << ")";
    }
  }
  auto snap = frontend.AcquireSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::vector<WorkerStore>& stores = *snap.value().stores;
  const ExecOptions exec = frontend.BuildExecOptions(10, 4);
  const BatchRouting routing = RouteOneRank(frontend, queries, 4);
  ASSERT_TRUE(SomeQueryHasTwoChains(routing));
  auto baseline = ExecuteThreaded(frontend.index(), plan, stores,
                                  frontend.prewarm_cache(), routing, queries,
                                  exec);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ThreadWorkerFleet fleet("conckill");
  SocketFaultPlan kill;
  kill.kill_after_frames = 6;
  ASSERT_TRUE(fleet.Start(world, opts, 2, nullptr, /*kill_worker=*/1, kill)
                  .ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontendOptions fopts;
  fopts.connect_deadline_ms = 500;
  fopts.rpc_deadline_ms = 2000;
  fopts.max_attempts = 2;
  SocketFrontend net(fopts);
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto out = ExecuteSocket(frontend.index(), plan, stores,
                           frontend.prewarm_cache(), routing, queries, exec,
                           &net);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(net.stats().workers_marked_dead, 1u);
  EXPECT_TRUE(net.WorkerDead(1));
  EXPECT_GT(out.value().faults.failovers, 0u);
  EXPECT_EQ(out.value().faults.degraded_queries, 0u);
  for (const uint8_t d : out.value().degraded) EXPECT_EQ(d, 0);
  ExpectBitIdentical(out.value().results, baseline.value().results);
  net.ShutdownWorkers();
}

TEST(SocketBackendTest, HandshakeRejectsDivergentWorkerState) {
  SmallWorld world = MakeSmallWorld(1200, 16, 4, 8, 8);
  HarmonyEngine frontend(BaseOptions());
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());

  // The worker "restarted without replaying its log": one extra insert the
  // frontend never saw changes the digest.
  ThreadWorkerFleet fleet("diverge");
  const DatasetView extra(world.mixture.vectors.Row(0), 1,
                          world.mixture.vectors.dim());
  ASSERT_TRUE(fleet
                  .Start(world, BaseOptions(), 1,
                         [&extra](HarmonyEngine* e) {
                           return e->InsertVectors(extra);
                         })
                  .ok());
  auto expect = MakeEngineHello(&frontend, 0, 1);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  const Status st = net.Connect(fleet.addrs(), expect.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("digest"), std::string::npos) << st;
}

TEST(SocketBackendTest, RestartedWorkerRejoinsAfterUpdateLogReplay) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  HarmonyEngine frontend(BaseOptions());
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
  // Live mutations before serving starts: inserts + a delete, all pending.
  const DatasetView ins(world.mixture.vectors.Row(10), 3,
                        world.mixture.vectors.dim());
  ASSERT_TRUE(frontend.InsertVectors(ins).ok());
  ASSERT_TRUE(frontend.DeleteVectors({5}).ok());

  const auto replay = [&frontend](HarmonyEngine* e) {
    return e->ReplayUpdates(frontend.update_log());
  };
  ThreadWorkerFleet fleet("rejoin");
  ASSERT_TRUE(fleet.Start(world, BaseOptions(), 2, replay).ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto before = SearchBatchOverSockets(&frontend, &net,
                                       world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(before.ok()) << before.status();

  // Crash worker 1: stop the whole fleet, then bring worker 0 back replayed
  // and worker 1 back WITHOUT replay — ReconnectDead must reject the
  // diverged one (kFailedPrecondition), then accept it once replayed.
  fleet.Stop();
  SocketFrontendOptions fast;
  fast.connect_deadline_ms = 100;
  fast.rpc_deadline_ms = 500;
  fast.max_attempts = 2;
  // Both workers are gone: calls fail over to nothing and mark them dead.
  SocketFrontend net2(fast);
  {
    ThreadWorkerFleet fleet2("rejoin");
    ASSERT_TRUE(fleet2.Start(world, BaseOptions(), 2, replay).ok());
    ASSERT_TRUE(net2.Connect(fleet2.addrs(), expect.value()).ok());
    fleet2.Stop();
  }
  EXPECT_FALSE(net2.Ping(0).ok());
  EXPECT_FALSE(net2.Ping(1).ok());
  EXPECT_EQ(net2.workers_dead(), 2u);

  // Restart without replay: the handshake digest catches it.
  {
    ThreadWorkerFleet fleet3("rejoin");
    ASSERT_TRUE(fleet3.Start(world, BaseOptions(), 2, nullptr).ok());
    const Status rejoin = net2.ReconnectDead();
    ASSERT_FALSE(rejoin.ok());
    EXPECT_EQ(rejoin.code(), StatusCode::kFailedPrecondition);
    fleet3.Stop();
  }

  // Restart with replay: both rejoin and the next batch matches the
  // pre-crash run bitwise.
  ThreadWorkerFleet fleet4("rejoin");
  ASSERT_TRUE(fleet4.Start(world, BaseOptions(), 2, replay).ok());
  ASSERT_TRUE(net2.ReconnectDead().ok());
  EXPECT_EQ(net2.workers_dead(), 0u);
  EXPECT_EQ(net2.stats().workers_rejoined, 2u);
  auto after = SearchBatchOverSockets(&frontend, &net2,
                                      world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(after.ok()) << after.status();
  ExpectBitIdentical(before.value().results, after.value().results);
  net2.ShutdownWorkers();
}

TEST(SocketBackendTest, WorkerKilledMidRunAtR2FailsOverWithZeroDegraded) {
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 16);
  const HarmonyOptions opts = BaseOptions(4, /*replication=*/2);
  HarmonyEngine frontend(opts);
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
  auto baseline = frontend.SearchBatchThreaded(world.workload.queries.View(),
                                               10, 4);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Worker 1 dies after a handful of frames (handshake + a few scans); with
  // machine -> worker = m % 2 and replicas (m, m+1 mod 4), every block has
  // a surviving replica on worker 0.
  ThreadWorkerFleet fleet("killr2");
  SocketFaultPlan kill;
  kill.kill_after_frames = 6;
  ASSERT_TRUE(fleet.Start(world, opts, 2, nullptr, /*kill_worker=*/1, kill)
                  .ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontendOptions fopts;
  fopts.connect_deadline_ms = 500;
  fopts.rpc_deadline_ms = 2000;
  fopts.max_attempts = 2;
  SocketFrontend net(fopts);
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto out = SearchBatchOverSockets(&frontend, &net,
                                    world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(out.ok()) << out.status();
  // The kill fired and worker 1 was declared dead...
  EXPECT_EQ(net.stats().workers_marked_dead, 1u);
  EXPECT_TRUE(net.WorkerDead(1));
  EXPECT_GT(out.value().faults.failovers, 0u);
  // ...yet replication absorbed it: zero degraded, results unchanged.
  EXPECT_EQ(out.value().faults.degraded_queries, 0u);
  for (const uint8_t d : out.value().degraded) EXPECT_EQ(d, 0);
  ExpectBitIdentical(out.value().results, baseline.value().results);
  net.ShutdownWorkers();
}

TEST(SocketBackendTest, WorkerKilledAtR1CompletesDegradedNeverHangs) {
  SmallWorld world = MakeSmallWorld(2000, 32, 8, 8, 16);
  const HarmonyOptions opts = BaseOptions(4, /*replication=*/1);
  HarmonyEngine frontend(opts);
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());

  ThreadWorkerFleet fleet("killr1");
  SocketFaultPlan kill;
  kill.kill_after_frames = 4;
  ASSERT_TRUE(fleet.Start(world, opts, 2, nullptr, /*kill_worker=*/1, kill)
                  .ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontendOptions fopts;
  fopts.connect_deadline_ms = 500;
  fopts.rpc_deadline_ms = 2000;
  fopts.max_attempts = 2;
  SocketFrontend net(fopts);
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto out = SearchBatchOverSockets(&frontend, &net,
                                    world.workload.queries.View(), 10, 4);
  // At R = 1 a dead worker means lost blocks: the run still completes with
  // a Status::OK, results for every query, and honest degraded tags.
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(net.stats().workers_marked_dead, 1u);
  EXPECT_GT(out.value().faults.degraded_queries, 0u);
  EXPECT_GT(out.value().faults.blocks_lost, 0u);
  ASSERT_EQ(out.value().results.size(), world.workload.queries.size());
  net.ShutdownWorkers();
}

TEST(SocketBackendTest, ConnectionFaultShimRunCompletesHonestly) {
  // Deterministic torn writes + short reads + stalls on the frontend side:
  // the run must complete (no hang, no crash); any query either matches the
  // fault-free baseline bitwise or is tagged degraded.
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  const HarmonyOptions opts = BaseOptions(4, /*replication=*/2);
  HarmonyEngine frontend(opts);
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());
  auto baseline = frontend.SearchBatchThreaded(world.workload.queries.View(),
                                               10, 4);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ThreadWorkerFleet fleet("shim");
  ASSERT_TRUE(fleet.Start(world, opts, 2).ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();

  SocketFrontendOptions fopts;
  fopts.connect_deadline_ms = 1000;
  fopts.rpc_deadline_ms = 3000;
  fopts.max_attempts = 4;
  fopts.faults.seed = 0x51C;
  fopts.faults.torn_write_prob = 0.05;
  fopts.faults.short_read_prob = 0.20;
  fopts.faults.stall_prob = 0.05;
  fopts.faults.stall_micros = 200;
  SocketFrontend net(fopts);
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  auto out = SearchBatchOverSockets(&frontend, &net,
                                    world.workload.queries.View(), 10, 4);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out.value().results.size(), baseline.value().results.size());
  for (size_t q = 0; q < out.value().results.size(); ++q) {
    if (out.value().degraded[q] != 0) continue;  // honestly tagged
    ASSERT_EQ(out.value().results[q].size(), baseline.value().results[q].size())
        << "query " << q;
    for (size_t i = 0; i < out.value().results[q].size(); ++i) {
      EXPECT_EQ(out.value().results[q][i].id,
                baseline.value().results[q][i].id);
      EXPECT_EQ(std::bit_cast<uint32_t>(out.value().results[q][i].distance),
                std::bit_cast<uint32_t>(baseline.value().results[q][i].distance));
    }
  }
  net.ShutdownWorkers();
}

TEST(SocketBackendTest, ServingFingerprintAndResultsMatchSimBackend) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  HarmonyEngine frontend(BaseOptions());
  ASSERT_TRUE(frontend.BuildFromIndex(world.index).ok());

  ThreadWorkerFleet fleet("serve");
  ASSERT_TRUE(fleet.Start(world, BaseOptions(), 2).ok());
  auto expect = MakeEngineHello(&frontend, 0, 2);
  ASSERT_TRUE(expect.ok()) << expect.status();
  SocketFrontend net;
  ASSERT_TRUE(net.Connect(fleet.addrs(), expect.value()).ok());

  ArrivalSpec spec;
  spec.num_queries = 64;
  spec.num_tenants = 3;
  spec.offered_qps = 2000.0;
  spec.slo_seconds = 0.05;
  spec.seed = 42;
  auto trace = GenerateArrivalTrace(world.mixture, spec);
  ASSERT_TRUE(trace.ok()) << trace.status();

  ServingOptions sopts;
  sopts.k = 10;
  sopts.nprobe = 4;
  ServingFrontend serving(&frontend, sopts);

  auto sim = serving.RunSimulated(trace.value());
  ASSERT_TRUE(sim.ok()) << sim.status();
  auto sock = serving.RunWithBackend(
      trace.value(),
      [&frontend, &net](const DatasetView& queries, size_t k, size_t nprobe) {
        return SearchBatchOverSockets(&frontend, &net, queries, k, nprobe);
      });
  ASSERT_TRUE(sock.ok()) << sock.status();

  // The wire backend makes the identical scheduling decisions...
  EXPECT_EQ(sim.value().schedule.Fingerprint(),
            sock.value().schedule.Fingerprint());
  // ...and the identical per-arrival answers, bit for bit.
  ExpectBitIdentical(sim.value().results, sock.value().results);
  net.ShutdownWorkers();
}

}  // namespace
}  // namespace harmony
