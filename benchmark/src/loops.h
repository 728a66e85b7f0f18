#ifndef HARMONY_BENCHMARK_LOOPS_H_
#define HARMONY_BENCHMARK_LOOPS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/coordinator.h"
#include "report.h"
#include "serve/arrival.h"
#include "serve/scheduler.h"
#include "trace.h"
#include "util/status.h"
#include "world.h"

namespace harmony {
namespace wallclock {

/// What every part of one run needs to know.
struct RunContext {
  Workload w;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool smoke = false;
  /// Per-layer run: alternate requests run split into spans.
  bool traced = false;
  std::string workdir;
  Tracer* tracer = nullptr;
};

/// A per-purpose stream seed derived from the run seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// One executed batch. `pre_s` is the time before the backend's execute
/// call started (snapshot + routing), so a query's completion is
/// pre_s + out.query_seconds[q] after the call began.
struct BatchRun {
  ThreadedOutput out;
  double total_s = 0.0;
  double pre_s = 0.0;
  size_t chains = 0;        ///< Split runs only.
  int64_t candidates = 0;   ///< Split runs only.
};

/// Runs one batch on the threaded engine (`net` null) or over sockets.
/// Unsplit, it calls the engine facade; split, it makes the facade's own
/// public calls (AcquireSnapshot -> RouteBatch -> Execute*) under spans.
/// `folds` names the snapshot span of a batch that follows writes.
Result<BatchRun> ExecuteBatch(HarmonyEngine* engine, SocketFrontend* net,
                              const DatasetView& queries, size_t k,
                              size_t nprobe, Tracer* tracer, bool split,
                              bool folds);

/// Measured-phase facts the probes reuse.
struct PhaseSummary {
  Dataset probe_batch;          ///< Queries of one measured batch / group set.
  double probe_batch_qps = 0.0; ///< Its measured throughput.
  double traced_batch_ms = 0.0;   ///< Mean latency of split (traced) batches.
  double untraced_batch_ms = 0.0; ///< Mean latency of facade batches.
  std::vector<double> chains_per_query;
  std::vector<double> candidates_per_query;
  std::vector<double> bytes_per_query;
};

/// Closed loop over batches drawn from `pool`; recall against `gt`.
Status RunClosedLoop(const RunContext& rc, World* world, const Dataset& pool,
                     const std::vector<std::vector<Neighbor>>& gt,
                     Report* report, PhaseSummary* phase);

/// Measured side of an open-loop timeline replay.
struct TimelineStats {
  size_t offered = 0;
  size_t completed = 0;
  size_t within_limit = 0;
  size_t shed = 0;
  size_t degraded = 0;
  size_t failures = 0;      ///< Non-OK statuses.
  size_t tombstoned_results = 0;
  std::vector<double> query_ms;  ///< Due (arrival) -> completion.
  std::vector<double> write_ms;  ///< Due -> UpdateLog::Save returned.
  std::vector<double> group_ms;  ///< Busy time per group.
  std::vector<double> group_size;
  std::vector<double> queue_ms;     ///< Dispatch - due, per group.
  std::vector<double> gen_late_ms;  ///< Wake-up overshoot while idle.
  std::vector<double> merge_ms;
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::vector<int64_t> inserted_ids;
  std::vector<int32_t> inserted_rows;  ///< Rows of trace.update_vectors.
  std::unordered_set<int64_t> deleted_ids;
  size_t max_delta_rows = 0;
};

/// Log bookkeeping shared by both write paths.
struct LogStats {
  std::vector<double> save_ms;
  uint64_t file_bytes = 0;
  uint64_t user_bytes = 0;
  size_t max_records = 0;
};

/// Replays `sched` (group closes) and `trace.updates` on the wall clock
/// from one load-generator thread, merging every `merge_every_s` of trace time.
/// Each update is acknowledged by saving the engine's log to `log_path`.
/// Per-group work counters and traced/untraced latencies go to `phase`.
Status DriveTimeline(const RunContext& rc, HarmonyEngine* engine,
                     const ArrivalTrace& trace, const ServingSchedule& sched,
                     const std::string& log_path, TimelineStats* st,
                     LogStats* log, PhaseSummary* phase);

/// The serving policy of `w`.
ServePolicy PolicyOf(const Workload& w);

/// The arrival process of open-loop workload `w` over `seconds`.
ArrivalSpec ArrivalSpecOf(const Workload& w, double seconds, uint64_t seed);

/// The serve-mixed workload: arrivals + updates + merges, then the
/// after-phase correctness checks (inserts found, log reload, recall on
/// the live set).
Status RunOpenLoop(const RunContext& rc, World* world, Report* report,
                   PhaseSummary* phase, TimelineStats* st, LogStats* log);

/// Closed loops, traced run: kWriteProbeOps inserts and deletes at
/// kWriteProbeRate, each acknowledged by a log save.
Status RunWriteProbe(const RunContext& rc, World* world, TimelineStats* st,
                     LogStats* log);

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_LOOPS_H_
