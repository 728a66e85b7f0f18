#ifndef HARMONY_BENCHMARK_WORKLOADS_H_
#define HARMONY_BENCHMARK_WORKLOADS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace harmony {
namespace wallclock {

/// Closed loop: one load-generator thread keeps exactly one batch in flight.
/// Open loop: the generator replays a timestamped arrival/update timeline and
/// times each request from when it was due.
enum class LoopKind { kClosed, kOpen };

/// What executes a batch: the in-process threaded engine, or the frontend
/// plus two socket worker threads on unix-domain sockets.
enum class BackendKind { kThreaded, kSocket };

/// \brief Every constant of one workload. The base data and the index are
/// fixed per workload; the run seed drives only queries, arrivals and
/// updates. The values are echoed into each result file's header.
struct Workload {
  std::string name;
  LoopKind loop = LoopKind::kClosed;
  BackendKind backend = BackendKind::kThreaded;

  // Base data: the 128-d sift1m stand-in (20k rows) times `scale`.
  double scale = 1.0;
  size_t nlist = 64;
  /// k-means sample for the IVF clustering (0 = every row).
  size_t ivf_train_rows = 0;

  // Quantized block streams.
  bool pq = false;
  size_t pq_subspaces = 16;
  size_t pq_bits = 8;
  size_t rerank_depth = 0;
  /// The engine default is 25; PQ training is single-threaded, and three
  /// set-ups per run at 25 iterations would not fit the run budget.
  size_t pq_train_iters = 10;

  /// Staggered pipeline on; the socket workload turns it off because
  /// bitwise parity between backends needs a fixed block order.
  bool pipeline = true;

  // Queries.
  size_t k = 10;
  size_t nprobe = 8;
  double query_zipf = 0.0;
  /// Closed loop: distinct queries batches are drawn from.
  size_t pool_queries = 0;
  size_t batch_queries = 0;
  /// Per-query latency limit behind slo_attainment.
  double latency_limit_ms = 20.0;
  /// Correctness gate on recall@k against exact ground truth.
  double recall_floor = 0.9;

  // Open loop only (GenerateArrivalTrace + BuildServingSchedule).
  size_t tenants = 0;
  double tenant_zipf = 0.0;
  double burst = 0.0;
  double offered_qps = 0.0;
  double update_qps = 0.0;
  double delete_frac = 0.0;
  size_t max_group = 4;
  double linger_ms = 1.0;
  size_t executors = 1;
  double est_query_ms = 0.4;
  double est_dispatch_ms = 0.2;
  size_t degraded_nprobe = 2;
  double merge_every_s = 5.0;
};

/// Machines of the grid, each run by one engine thread (4 on a 4-thread
/// host), and the engine's one thread per node.
constexpr size_t kMachines = 4;
/// Threads for the IVF k-means and exact ground truth (set-up only).
constexpr size_t kSetupThreads = 4;
/// Untimed iterations before the measured phase.
constexpr size_t kWarmupIterations = 2;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepetitions = 3;
/// Closed-loop write probe of the traced run (inserts + deletes, each
/// acknowledged by UpdateLog::Save), issued at a fixed rate.
constexpr size_t kWriteProbeOps = 1000;
constexpr double kWriteProbeRate = 500.0;
/// Socket worker threads of the socket topology.
constexpr size_t kSocketWorkers = 2;

/// Memory-bound scan path on data larger than the L3 cache, with skewed
/// queries that exercise shared scans and load-aware ordering.
inline Workload BatchLarge() {
  Workload w;
  w.name = "batch-large";
  w.scale = 15.0;  // 300k rows, 154 MB of floats
  w.nlist = 512;
  w.ivf_train_rows = 50000;
  w.nprobe = 6;
  w.query_zipf = 1.0;
  w.pool_queries = 1000;
  w.batch_queries = 500;
  w.latency_limit_ms = 500.0;
  w.recall_floor = 0.9;
  return w;
}

/// ADC kernels, LUT build and exact rerank on cache-resident data; PQ
/// training lands in setup_s.
inline Workload BatchPq() {
  Workload w;
  w.name = "batch-pq";
  w.pq = true;
  w.rerank_depth = 160;
  w.pool_queries = 1000;
  w.batch_queries = 250;
  w.latency_limit_ms = 500.0;
  w.recall_floor = 0.98;
  return w;
}

/// Many tiny groups plus a write stream and periodic merges: per-group
/// fixed cost, snapshot folds, log saves and merge stalls.
inline Workload ServeMixed() {
  Workload w;
  w.name = "serve-mixed";
  w.loop = LoopKind::kOpen;
  w.latency_limit_ms = 20.0;
  w.recall_floor = 0.95;
  w.tenants = 6;
  w.tenant_zipf = 0.9;
  w.burst = 1.0;
  w.offered_qps = 300.0;
  w.update_qps = 50.0;
  w.delete_frac = 0.3;
  return w;
}

/// RPC transport, codec and the serial socket chain loop.
inline Workload SocketBatch() {
  Workload w;
  w.name = "socket-batch";
  w.backend = BackendKind::kSocket;
  w.pipeline = false;
  w.pool_queries = 500;
  w.batch_queries = 50;
  w.latency_limit_ms = 500.0;
  w.recall_floor = 0.95;
  return w;
}

inline std::vector<Workload> AllWorkloads() {
  return {BatchLarge(), BatchPq(), ServeMixed(), SocketBatch()};
}

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_WORKLOADS_H_
