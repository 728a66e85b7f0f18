#include "serve/serving.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "serve/msg_queue.h"

namespace harmony {

Result<ServePolicy> CalibrateServePolicy(HarmonyEngine* engine,
                                         const DatasetView& queries, size_t k,
                                         size_t nprobe) {
  const size_t probe = std::min<size_t>(kMaxQueryGroup, queries.size());
  const DatasetView sample(queries.Row(0), probe, queries.dim());
  HARMONY_ASSIGN_OR_RETURN(const BatchResult warm,
                           engine->SearchBatchPinned(sample, k, nprobe));
  const double group_seconds = warm.stats.makespan_seconds;
  ServePolicy policy;
  policy.est_query_seconds = group_seconds / static_cast<double>(probe);
  policy.est_dispatch_seconds = 0.1 * group_seconds;
  policy.max_linger_seconds = 2.0 * policy.est_query_seconds;
  policy.executors = 2;
  return policy;
}

Result<ServingReport> ServingFrontend::Replay(const ArrivalTrace& trace,
                                              bool threaded,
                                              const BatchExecHook* hook) {
  if (engine_ == nullptr || !engine_->built()) {
    return Status::FailedPrecondition("engine must be built before serving");
  }
  if (trace.arrivals.empty()) {
    return Status::InvalidArgument("empty arrival trace");
  }
  if (options_.k == 0 || options_.nprobe == 0 ||
      options_.degraded_nprobe == 0) {
    return Status::InvalidArgument("k and nprobe knobs must be > 0");
  }

  ServingReport report;
  report.schedule = BuildServingSchedule(trace, options_.policy);
  const ServingSchedule& sched = report.schedule;
  const size_t n = trace.arrivals.size();
  report.outcome.assign(n, QueryOutcome::kShedDeadline);
  report.latency_seconds.assign(n, -1.0);
  report.dispatch_seconds.assign(n, -1.0);
  report.results.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (sched.group_of[i] >= 0) continue;
    report.outcome[i] = sched.shed_reason[i] == ShedReason::kBackpressure
                            ? QueryOutcome::kShedBackpressure
                            : QueryOutcome::kShedDeadline;
  }

  // Per-lane clock on the replay timeline: a lane's next group dispatches at
  // max(its scheduled close, when the lane finished its previous group).
  // Measured batch makespans advance the lane clock, so contention shows up
  // as queueing delay exactly like it would on a live deployment.
  std::vector<double> lane_clock(options_.policy.executors, 0.0);
  double last_completion = trace.SpanSeconds();

  // Update stream: arrivals are applied in timestamp order as the replay
  // reaches them — every update at or before a group's close is applied
  // before the group executes, on the group's lane, so both backends mutate
  // the engine at the identical points in schedule order (per-generation
  // determinism) and a write burst delays that lane's queries.
  size_t next_update = 0;
  auto apply_updates_until = [&](double close_seconds,
                                 size_t lane) -> Status {
    while (next_update < trace.updates.size() &&
           trace.updates[next_update].at_seconds <= close_seconds) {
      const UpdateArrival& u = trace.updates[next_update++];
      if (u.is_delete) {
        // The trace carries raw entropy; the live id space is only known
        // here. Tombstoning an already-deleted id is a no-op by design.
        const int64_t victim = static_cast<int64_t>(
            u.target_draw % static_cast<uint64_t>(engine_->IdSpan()));
        HARMONY_RETURN_NOT_OK(engine_->DeleteVectors({victim}));
        ++report.deletes_applied;
      } else {
        const DatasetView row(
            trace.update_vectors.Row(static_cast<size_t>(u.vec_row)), 1,
            trace.update_vectors.dim());
        HARMONY_RETURN_NOT_OK(engine_->InsertVectors(row));
        ++report.inserts_applied;
      }
      if (lane < lane_clock.size()) {
        lane_clock[lane] += options_.est_update_seconds;
      }
    }
    return Status::OK();
  };

  // Executes group `gi` against the engine and stamps its members' records.
  Status exec_status = Status::OK();
  auto run_group = [&](int32_t gi) -> Status {
    const ServingGroup& g = sched.groups[static_cast<size_t>(gi)];
    HARMONY_RETURN_NOT_OK(
        apply_updates_until(g.close_seconds, static_cast<size_t>(g.lane)));
    std::vector<int64_t> rows;
    rows.reserve(g.members.size());
    for (const ScheduledQuery& m : g.members) {
      rows.push_back(static_cast<int64_t>(m.query_row));
    }
    const Dataset sub = trace.queries.Gather(rows);
    const size_t nprobe =
        g.degraded ? options_.degraded_nprobe : options_.nprobe;

    double wall = 0.0;
    std::vector<double> query_seconds;
    std::vector<std::vector<Neighbor>> results;
    if (hook != nullptr) {
      HARMONY_ASSIGN_OR_RETURN(ThreadedOutput out,
                               (*hook)(sub.View(), options_.k, nprobe));
      wall = out.wall_seconds;
      query_seconds = std::move(out.query_seconds);
      results = std::move(out.results);
    } else if (threaded) {
      HARMONY_ASSIGN_OR_RETURN(
          ThreadedOutput out,
          engine_->SearchBatchThreaded(sub.View(), options_.k, nprobe));
      wall = out.wall_seconds;
      query_seconds = std::move(out.query_seconds);
      results = std::move(out.results);
    } else {
      HARMONY_ASSIGN_OR_RETURN(
          BatchResult out,
          engine_->SearchBatchPinned(sub.View(), options_.k, nprobe));
      wall = out.stats.makespan_seconds;
      query_seconds = std::move(out.query_seconds);
      results = std::move(out.results);
    }

    const double dispatch = std::max(g.close_seconds, lane_clock[g.lane]);
    lane_clock[g.lane] = dispatch + wall;
    for (size_t j = 0; j < g.members.size(); ++j) {
      const ScheduledQuery& m = g.members[j];
      const size_t ai = static_cast<size_t>(m.arrival_index);
      const double service =
          j < query_seconds.size() && query_seconds[j] >= 0.0
              ? query_seconds[j]
              : wall;
      const double completion = dispatch + service;
      report.dispatch_seconds[ai] = dispatch;
      report.latency_seconds[ai] = completion - m.arrival_seconds;
      report.outcome[ai] = completion > m.deadline_seconds
                               ? QueryOutcome::kTimedOut
                               : QueryOutcome::kCompleted;
      if (j < results.size()) report.results[ai] = std::move(results[j]);
      last_completion = std::max(last_completion, completion);
    }
    return Status::OK();
  };

  if (!threaded) {
    for (size_t gi = 0; gi < sched.groups.size(); ++gi) {
      HARMONY_RETURN_NOT_OK(run_group(static_cast<int32_t>(gi)));
    }
  } else {
    // Producer/consumer split across a bounded SPSC ring: the producer
    // thread feeds group indices in schedule order (the serving frontend
    // role), the consumer executes them (the engine role). The ring is the
    // same mailbox primitive the scheduler models, here genuinely crossing
    // threads.
    SpscRing<int32_t> dispatch_ring(64);
    constexpr int32_t kDone = -1;
    std::thread producer([&sched, &dispatch_ring]() {
      for (size_t gi = 0; gi < sched.groups.size(); ++gi) {
        while (!dispatch_ring.TryPush(static_cast<int32_t>(gi))) {
          std::this_thread::yield();
        }
      }
      while (!dispatch_ring.TryPush(kDone)) std::this_thread::yield();
    });
    while (true) {
      int32_t gi = kDone;
      if (!dispatch_ring.TryPop(&gi)) {
        std::this_thread::yield();
        continue;
      }
      if (gi == kDone) break;
      exec_status = run_group(gi);
      if (!exec_status.ok()) {
        // Drain the producer so the thread can join, then fail.
        while (gi != kDone) {
          if (!dispatch_ring.TryPop(&gi)) std::this_thread::yield();
        }
        break;
      }
    }
    producer.join();
    HARMONY_RETURN_NOT_OK(exec_status);
  }

  // Updates arriving after the last group's close still land (no lane to
  // charge — every query group is done).
  HARMONY_RETURN_NOT_OK(apply_updates_until(
      std::numeric_limits<double>::infinity(), lane_clock.size()));

  // Aggregate per-arrival records into the tail-latency accounting.
  std::vector<QueryRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].tenant = trace.arrivals[i].tenant;
    records[i].outcome = report.outcome[i];
    records[i].degraded = sched.degraded[i] != 0;
    records[i].latency_seconds = report.latency_seconds[i];
  }
  report.stats =
      ComputeServingStats(records, trace.num_tenants, last_completion);
  return report;
}

}  // namespace harmony
