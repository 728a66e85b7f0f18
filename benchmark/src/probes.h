#ifndef HARMONY_BENCHMARK_PROBES_H_
#define HARMONY_BENCHMARK_PROBES_H_

#include <cstddef>
#include <cstdint>

#include "loops.h"
#include "report.h"
#include "util/status.h"
#include "world.h"

namespace harmony {
namespace wallclock {

/// Counters the span-timed probes gather beside their spans.
struct ProbeCounts {
  uint64_t scan_rows = 0;   ///< Rows pushed through ScanBlock.
  uint64_t scan_bytes = 0;  ///< Float rows or PQ codes those rows stream.
  double survivor_frac = 0.0;
  /// |ln(simulated QPS / measured QPS)| of one batch: the cost model's
  /// error, 0 when it predicts the wall clock exactly.
  double model_qps_log_error = 0.0;
  uint64_t socket_rpcs = 0;
  size_t socket_queries = 0;
  uint64_t request_bytes = 0;
  size_t requests = 0;
};

/// Request-path probes of a traced run, on the still unmodified engine:
/// the ScanBlock / rerank replay over one measured batch's real chains,
/// the simulator's prune and cost model on that batch, the float twin
/// (PQ workloads), thread-cluster spawn and hop, and the socket transport.
/// All timings land in `rc.tracer` as spans.
Status RunRequestProbes(const RunContext& rc, World* world,
                        const PhaseSummary& phase, ProbeCounts* counts);

/// A short update-free open-loop replay on this workload's engine, so
/// every workload reports the serving layer's costs.
Status RunServeProbe(const RunContext& rc, World* world, TimelineStats* st);

/// After the write probe: snapshot folds over a dirty delta, then one merge.
Status RunFoldAndMergeProbe(const RunContext& rc, World* world,
                            size_t* max_delta_rows);

}  // namespace wallclock
}  // namespace harmony

#endif  // HARMONY_BENCHMARK_PROBES_H_
