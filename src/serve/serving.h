#ifndef HARMONY_SERVE_SERVING_H_
#define HARMONY_SERVE_SERVING_H_

#include <functional>
#include <vector>

#include "core/engine.h"
#include "serve/arrival.h"
#include "serve/scheduler.h"
#include "serve/serving_stats.h"

namespace harmony {

/// \brief Serving-path configuration: search quality knobs plus the
/// admission policy.
struct ServingOptions {
  size_t k = 10;
  size_t nprobe = 8;
  /// nprobe for degrade-lane groups (LatePolicy::kDegrade): deadline-pressed
  /// queries trade recall for latency without slowing full-quality groups.
  size_t degraded_nprobe = 2;
  /// Estimated service time one update (insert or delete) costs the lane it
  /// lands on: updates share the SLO scheduler's executor lanes with query
  /// groups, so a write burst shows up as queueing delay on that lane.
  double est_update_seconds = 2e-4;
  ServePolicy policy;
};

/// \brief Calibrates the admission policy on the virtual clock: one
/// SearchBatchPinned warm-up group of the first min(kMaxQueryGroup, rows)
/// rows of `queries` sets est_query_seconds to its makespan per query,
/// est_dispatch_seconds to 0.1x the group's makespan, max_linger_seconds to
/// 2x est_query_seconds, and 2 executors; every other field keeps its
/// ServePolicy default. Deterministic, so the estimates track the simulated
/// cost model.
Result<ServePolicy> CalibrateServePolicy(HarmonyEngine* engine,
                                         const DatasetView& queries, size_t k,
                                         size_t nprobe);

/// \brief Complete record of one serving run.
///
/// `schedule` is the precomputed decision sequence (identical across
/// backends for the same trace+policy — pinned by Fingerprint()); the
/// per-arrival vectors carry the *measured* side, which is virtual-clock
/// deterministic on the simulated backend and wall-clock on the threaded
/// one.
struct ServingReport {
  ServingSchedule schedule;
  /// Per arrival index: final disposition.
  std::vector<QueryOutcome> outcome;
  /// Per arrival index: arrival-to-completion latency; -1 for shed queries.
  std::vector<double> latency_seconds;
  /// Per arrival index: time the query's group was dispatched; -1 for shed.
  std::vector<double> dispatch_seconds;
  /// Per arrival index: top-k neighbors (empty for shed queries).
  std::vector<std::vector<Neighbor>> results;
  /// Update-stream accounting: arrivals from ArrivalTrace::updates applied
  /// to the engine during the replay (inserts buffered into delta shards,
  /// deletes tombstoned). Both zero when the trace carries no update stream.
  size_t inserts_applied = 0;
  size_t deletes_applied = 0;
  ServingStats stats;
};

/// \brief Continuous-serving frontend: admission control + SLO scheduling
/// over a HarmonyEngine.
///
/// Split-clock design: BuildServingSchedule makes every *decision* on a
/// virtual timeline (pure function of trace+policy), then the frontend
/// *replays* the schedule against the engine, group by group, on one of two
/// clocks —
///  - RunSimulated: per-query service times come from the simulated
///    cluster's virtual clock, so the whole report (decisions AND
///    latencies) is bit-for-bit reproducible;
///  - RunThreaded: groups flow through an SPSC dispatch ring to a consumer
///    that executes them on real threads; decisions are still identical,
///    latencies are measured wall time anchored to the virtual dispatch
///    timeline (dispatch = max(group close, lane clock)).
class ServingFrontend {
 public:
  /// `engine` must outlive the frontend and already be built.
  ServingFrontend(HarmonyEngine* engine, ServingOptions options)
      : engine_(engine), options_(options) {}

  const ServingOptions& options() const { return options_; }

  Result<ServingReport> RunSimulated(const ArrivalTrace& trace) {
    return Replay(trace, /*threaded=*/false);
  }

  Result<ServingReport> RunThreaded(const ArrivalTrace& trace) {
    return Replay(trace, /*threaded=*/true);
  }

  /// Pluggable execution backend for one scheduled group: given the group's
  /// query rows and quality knobs, returns the batch output. The serving
  /// layer stays ignorant of what executes the batch — the socket backend
  /// injects SearchBatchOverSockets through this seam without a
  /// serve -> net/socket dependency.
  using BatchExecHook = std::function<Result<ThreadedOutput>(
      const DatasetView& queries, size_t k, size_t nprobe)>;

  /// Replays the trace with every group executed by `hook` (groups run
  /// sequentially in schedule order, like RunSimulated). The decision
  /// sequence — and so ServingSchedule::Fingerprint() — is identical to the
  /// other backends by construction; only measured latencies differ.
  Result<ServingReport> RunWithBackend(const ArrivalTrace& trace,
                                       const BatchExecHook& hook) {
    return Replay(trace, /*threaded=*/false, &hook);
  }

 private:
  Result<ServingReport> Replay(const ArrivalTrace& trace, bool threaded,
                               const BatchExecHook* hook = nullptr);

  HarmonyEngine* engine_;
  ServingOptions options_;
};

}  // namespace harmony

#endif  // HARMONY_SERVE_SERVING_H_
