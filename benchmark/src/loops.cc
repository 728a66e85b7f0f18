#include "loops.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/router.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/ground_truth.h"
#include "workload/queries.h"

namespace harmony {
namespace wallclock {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by the kernel's timer slack, which would show up as generator lateness.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

bool BitwiseEqual(const std::vector<std::vector<Neighbor>>& a,
                  const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id ||
          std::memcmp(&a[q][i].distance, &b[q][i].distance, sizeof(float)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

/// Saves the engine's log (the write's durable acknowledgement) and books
/// the bytes the file now holds against the user bytes of the write.
Status SaveLog(HarmonyEngine* engine, const std::string& path, Tracer* tracer,
               uint64_t user_bytes, LogStats* log) {
  {
    StopWatch watch;
    ScopedSpan span(tracer, "storage", "UpdateLog.Save");
    HARMONY_RETURN_NOT_OK(engine->update_log().Save(path));
    log->save_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat " + path);
  log->file_bytes += size;
  log->user_bytes += user_bytes;
  log->max_records =
      std::max(log->max_records, engine->update_log().records().size());
  return Status::OK();
}

uint64_t InsertUserBytes(size_t dim) {
  return dim * sizeof(float) + sizeof(int64_t);
}

}  // namespace

Result<BatchRun> ExecuteBatch(HarmonyEngine* engine, SocketFrontend* net,
                              const DatasetView& queries, size_t k,
                              size_t nprobe, Tracer* tracer, bool split,
                              bool folds) {
  BatchRun run;
  StopWatch watch;
  if (!split) {
    if (net == nullptr) {
      HARMONY_ASSIGN_OR_RETURN(run.out,
                               engine->SearchBatchThreaded(queries, k, nprobe));
    } else {
      HARMONY_ASSIGN_OR_RETURN(
          run.out, SearchBatchOverSockets(engine, net, queries, k, nprobe));
    }
    run.total_s = watch.ElapsedSeconds();
    run.pre_s = std::max(0.0, run.total_s - run.out.wall_seconds);
    return run;
  }
  StoreSnapshot snap;
  {
    ScopedSpan span(tracer, "core", folds ? "FoldSnapshot" : "AcquireSnapshot");
    HARMONY_ASSIGN_OR_RETURN(snap, engine->AcquireSnapshot());
  }
  const ExecOptions exec = engine->BuildExecOptions(k, nprobe);
  BatchRouting routing;
  {
    ScopedSpan span(tracer, "core", "RouteBatch");
    routing = RouteBatch(engine->index(), engine->plan(), queries, nprobe,
                         exec.shared_scans ? exec.query_group_size : 1);
  }
  run.chains = routing.chains.size();
  run.candidates = routing.total_candidates;
  run.pre_s = watch.ElapsedSeconds();
  if (net == nullptr) {
    ScopedSpan span(tracer, "core", "ExecuteThreaded");
    HARMONY_ASSIGN_OR_RETURN(
        run.out, ExecuteThreaded(engine->index(), engine->plan(), *snap.stores,
                                 engine->prewarm_cache(), routing, queries,
                                 exec));
  } else {
    ScopedSpan span(tracer, "net", "ExecuteSocket");
    HARMONY_ASSIGN_OR_RETURN(
        run.out, ExecuteSocket(engine->index(), engine->plan(), *snap.stores,
                               engine->prewarm_cache(), routing, queries, exec,
                               net));
  }
  run.total_s = watch.ElapsedSeconds();
  return run;
}

Status RunClosedLoop(const RunContext& rc, World* world, const Dataset& pool,
                     const std::vector<std::vector<Neighbor>>& gt,
                     Report* report, PhaseSummary* phase) {
  const Workload& w = rc.w;
  HarmonyEngine* engine = world->engine.get();
  SocketFrontend* net =
      world->sockets != nullptr ? world->sockets->frontend() : nullptr;
  Rng rng(StreamSeed(rc.seed, 11));
  std::vector<int64_t> order(pool.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  const size_t batch = std::min(w.batch_queries, pool.size());
  auto draw = [&]() {
    rng.Shuffle(&order);
    return std::vector<int64_t>(order.begin(), order.begin() + batch);
  };

  if (net != nullptr) {
    // The socket backend must return exactly what the threaded engine does.
    const Dataset q = pool.Gather(draw());
    auto threaded = engine->SearchBatchThreaded(q.View(), w.k, w.nprobe);
    auto socket = SearchBatchOverSockets(engine, net, q.View(), w.k, w.nprobe);
    const bool same = threaded.ok() && socket.ok() &&
                      BitwiseEqual(threaded.value().results,
                                   socket.value().results);
    report->AddCheck("socket_matches_threaded", same,
                     same ? "first batch bitwise equal"
                          : "socket results differ from threaded");
  }
  for (size_t i = 0; i < kWarmupIterations; ++i) {
    const Dataset q = pool.Gather(draw());
    HARMONY_RETURN_NOT_OK(ExecuteBatch(engine, net, q.View(), w.k, w.nprobe,
                                       rc.tracer, false, false)
                              .status());
  }

  std::vector<double> latency_ms;
  std::vector<std::pair<int64_t, std::vector<Neighbor>>> answers;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  size_t lost = 0;      // queries of batches that returned an error
  size_t degraded = 0;  // completed from an incomplete pipeline
  Status first_error = Status::OK();
  StopWatch phase_watch;
  for (int64_t b = 0; phase_watch.ElapsedSeconds() < rc.seconds; ++b) {
    const std::vector<int64_t> rows = draw();
    const Dataset q = pool.Gather(rows);
    const bool split = rc.traced && b % 2 == 1;
    rc.tracer->set_recording(split);
    Result<BatchRun> result = [&]() {
      ScopedSpan span(rc.tracer, "bench", "Batch", b);
      return ExecuteBatch(engine, net, q.View(), w.k, w.nprobe, rc.tracer,
                          split, false);
    }();
    rc.tracer->set_recording(false);
    report->attempted += rows.size();
    if (!result.ok()) {
      lost += rows.size();
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    BatchRun& run = result.value();
    for (size_t i = 0; i < rows.size(); ++i) {
      const double done = run.out.query_seconds[i] >= 0.0
                              ? run.pre_s + run.out.query_seconds[i]
                              : run.total_s;
      latency_ms.push_back(done * 1e3);
      degraded += run.out.degraded[i] != 0;
      answers.emplace_back(rows[i], std::move(run.out.results[i]));
    }
    (split ? traced_ms : untraced_ms).push_back(run.total_s * 1e3);
    const double nq = static_cast<double>(rows.size());
    phase->bytes_per_query.push_back(
        static_cast<double>(run.out.bytes_streamed) / nq);
    if (split) {
      phase->chains_per_query.push_back(static_cast<double>(run.chains) / nq);
      phase->candidates_per_query.push_back(
          static_cast<double>(run.candidates) / nq);
    }
    if (b == 0) {
      phase->probe_batch = q;
      phase->probe_batch_qps = nq / run.total_s;
    }
  }
  const double wall = phase_watch.ElapsedSeconds();
  report->failed += lost + degraded;
  report->AddCheck("measured_batches_ok", first_error.ok(),
                   first_error.ok() ? "" : first_error.ToString());

  double recall_sum = 0.0;
  for (const auto& [row, result] : answers) {
    recall_sum += RecallAtK(result, gt[static_cast<size_t>(row)], w.k);
  }
  const size_t offered = latency_ms.size() + lost;
  const double recall =
      answers.empty() ? 0.0 : recall_sum / static_cast<double>(answers.size());
  size_t within = 0;
  for (const double ms : latency_ms) within += ms <= w.latency_limit_ms;

  report->AddEndToEnd("qps", static_cast<double>(latency_ms.size()) / wall,
                      "1/s");
  report->AddEndToEnd("latency_ms_p50", Quantile(latency_ms, 0.50), "ms");
  report->AddEndToEnd("latency_ms_p90", Quantile(latency_ms, 0.90), "ms");
  report->AddEndToEnd("slo_attainment",
                      offered == 0 ? 0.0
                                   : static_cast<double>(within) /
                                         static_cast<double>(offered),
                      "ratio");
  report->AddEndToEnd("recall_at_10", recall, "ratio");
  report->AddCheck("recall_floor", recall >= w.recall_floor,
                   "recall " + std::to_string(recall) + " vs floor " +
                       std::to_string(w.recall_floor));
  phase->traced_batch_ms = Mean(traced_ms);
  phase->untraced_batch_ms = Mean(untraced_ms);
  return Status::OK();
}

ServePolicy PolicyOf(const Workload& w) {
  ServePolicy policy;
  policy.max_group = w.max_group;
  policy.max_linger_seconds = w.linger_ms * 1e-3;
  policy.est_query_seconds = w.est_query_ms * 1e-3;
  policy.est_dispatch_seconds = w.est_dispatch_ms * 1e-3;
  policy.executors = w.executors;
  policy.on_late = LatePolicy::kDegrade;
  return policy;
}

ArrivalSpec ArrivalSpecOf(const Workload& w, double seconds, uint64_t seed) {
  ArrivalSpec spec;
  spec.num_queries = static_cast<size_t>(std::llround(w.offered_qps * seconds));
  spec.num_tenants = w.tenants;
  spec.offered_qps = w.offered_qps;
  spec.zipf_theta = w.tenant_zipf;
  spec.burst_factor = w.burst;
  spec.slo_seconds = w.latency_limit_ms * 1e-3;
  spec.seed = seed;
  spec.update_rate = w.update_qps;
  spec.delete_frac = w.delete_frac;
  return spec;
}

Status DriveTimeline(const RunContext& rc, HarmonyEngine* engine,
                     const ArrivalTrace& trace, const ServingSchedule& sched,
                     const std::string& log_path, TimelineStats* st,
                     LogStats* log, PhaseSummary* phase) {
  const Workload& w = rc.w;
  // Updates at a group's close land before the group (as the serving
  // frontend applies them); merges come last at equal times.
  enum Kind { kUpdate = 0, kGroup = 1, kMerge = 2 };
  struct Event {
    double at = 0.0;
    Kind kind = kUpdate;
    size_t index = 0;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < trace.updates.size(); ++i) {
    events.push_back({trace.updates[i].at_seconds, kUpdate, i});
  }
  for (size_t g = 0; g < sched.groups.size(); ++g) {
    events.push_back({sched.groups[g].close_seconds, kGroup, g});
  }
  if (w.merge_every_s > 0.0 && !trace.updates.empty()) {
    for (double t = w.merge_every_s; t < trace.SpanSeconds();
         t += w.merge_every_s) {
      events.push_back({t, kMerge, 0});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.kind < b.kind;
                   });

  st->offered += trace.arrivals.size();
  for (const int32_t g : sched.group_of) st->shed += g < 0;
  st->degraded += sched.degraded_admits;

  const size_t dim = trace.update_vectors.dim();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due_at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  bool dirty = false;
  int64_t group_no = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const Event& ev : events) {
    const Clock::time_point due = due_at(ev.at);
    Clock::time_point start = Clock::now();
    if (start < due) {
      WaitUntil(due);
      start = Clock::now();
      st->gen_late_ms.push_back(MsBetween(due, start));
    }
    switch (ev.kind) {
      case kUpdate: {
        const UpdateArrival& u = trace.updates[ev.index];
        rc.tracer->set_recording(rc.traced);
        Status s = Status::OK();
        uint64_t user_bytes = sizeof(int64_t);
        if (u.is_delete) {
          // Resolved against the live id space at apply time, exactly as
          // the serving frontend does.
          const int64_t victim = static_cast<int64_t>(
              u.target_draw % static_cast<uint64_t>(engine->IdSpan()));
          ScopedSpan span(rc.tracer, "core", "DeleteVectors");
          s = engine->DeleteVectors({victim});
          if (s.ok()) st->deleted_ids.insert(victim);
        } else {
          const int64_t gid = static_cast<int64_t>(engine->IdSpan());
          const DatasetView row(
              trace.update_vectors.Row(static_cast<size_t>(u.vec_row)), 1, dim);
          ScopedSpan span(rc.tracer, "core", "InsertVectors");
          s = engine->InsertVectors(row);
          user_bytes = InsertUserBytes(dim);
          if (s.ok()) {
            st->inserted_ids.push_back(gid);
            st->inserted_rows.push_back(u.vec_row);
          }
        }
        if (s.ok()) s = SaveLog(engine, log_path, rc.tracer, user_bytes, log);
        rc.tracer->set_recording(false);
        if (s.ok()) {
          st->write_ms.push_back(MsBetween(due, Clock::now()));
        } else {
          ++st->failures;
        }
        dirty = true;
        st->max_delta_rows =
            std::max(st->max_delta_rows, engine->pending_delta_rows());
        break;
      }
      case kGroup: {
        const ServingGroup& g = sched.groups[ev.index];
        st->queue_ms.push_back(MsBetween(due, start));
        std::vector<int64_t> rows;
        for (const ScheduledQuery& m : g.members) rows.push_back(m.query_row);
        const Dataset q = trace.queries.Gather(rows);
        const size_t nprobe = g.degraded ? w.degraded_nprobe : w.nprobe;
        const bool split = rc.traced && group_no % 2 == 1;
        rc.tracer->set_recording(split);
        const Clock::time_point call = Clock::now();
        Result<BatchRun> result = [&]() {
          ScopedSpan span(rc.tracer, "bench", "Group", group_no);
          return ExecuteBatch(engine, nullptr, q.View(), w.k, nprobe,
                              rc.tracer, split, dirty);
        }();
        rc.tracer->set_recording(false);
        dirty = false;
        ++group_no;
        st->group_size.push_back(static_cast<double>(rows.size()));
        if (!result.ok()) {
          st->failures += rows.size();
          break;
        }
        const BatchRun& run = result.value();
        for (size_t j = 0; j < g.members.size(); ++j) {
          const double done_s = run.out.query_seconds[j] >= 0.0
                                    ? run.pre_s + run.out.query_seconds[j]
                                    : run.total_s;
          const Clock::time_point done =
              call + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(done_s));
          const double ms =
              MsBetween(due_at(g.members[j].arrival_seconds), done);
          st->query_ms.push_back(ms);
          ++st->completed;
          st->within_limit += ms <= w.latency_limit_ms;
          for (const Neighbor& n : run.out.results[j]) {
            st->tombstoned_results += engine->IsDeleted(n.id);
          }
        }
        st->group_ms.push_back(run.total_s * 1e3);
        (split ? traced_ms : untraced_ms).push_back(run.total_s * 1e3);
        const double nq = static_cast<double>(rows.size());
        phase->bytes_per_query.push_back(
            static_cast<double>(run.out.bytes_streamed) / nq);
        if (split) {
          phase->chains_per_query.push_back(static_cast<double>(run.chains) /
                                            nq);
          phase->candidates_per_query.push_back(
              static_cast<double>(run.candidates) / nq);
        }
        break;
      }
      case kMerge: {
        rc.tracer->set_recording(rc.traced);
        StopWatch watch;
        Status s = Status::OK();
        {
          ScopedSpan span(rc.tracer, "core", "MergeUpdates");
          s = engine->MergeUpdates();
        }
        rc.tracer->set_recording(false);
        st->merge_ms.push_back(watch.ElapsedSeconds() * 1e3);
        if (!s.ok()) ++st->failures;
        dirty = false;
        break;
      }
    }
    st->busy_s += MsBetween(start, Clock::now()) * 1e-3;
  }
  st->wall_s = MsBetween(t0, Clock::now()) * 1e-3;
  phase->traced_batch_ms = Mean(traced_ms);
  phase->untraced_batch_ms = Mean(untraced_ms);
  return Status::OK();
}

Status RunOpenLoop(const RunContext& rc, World* world, Report* report,
                   PhaseSummary* phase, TimelineStats* st, LogStats* log) {
  const Workload& w = rc.w;
  HarmonyEngine* engine = world->engine.get();
  const ArrivalSpec spec =
      ArrivalSpecOf(w, rc.seconds, StreamSeed(rc.seed, 21));
  HARMONY_ASSIGN_OR_RETURN(const ArrivalTrace trace,
                           GenerateArrivalTrace(world->data.mixture, spec));
  const ServingSchedule sched = BuildServingSchedule(trace, PolicyOf(w));

  for (size_t i = 0; i < kWarmupIterations; ++i) {
    std::vector<int64_t> rows;
    for (size_t j = 0; j < w.max_group; ++j) {
      rows.push_back(static_cast<int64_t>((i * w.max_group + j) %
                                          trace.queries.size()));
    }
    const Dataset q = trace.queries.Gather(rows);
    HARMONY_RETURN_NOT_OK(
        engine->SearchBatchThreaded(q.View(), w.k, w.nprobe).status());
  }

  const std::string log_path = rc.workdir + "/update.log";
  HARMONY_RETURN_NOT_OK(DriveTimeline(rc, engine, trace, sched, log_path, st,
                                      log, phase));
  HARMONY_RETURN_NOT_OK(engine->MergeUpdates());

  report->attempted += st->offered + trace.updates.size() + st->merge_ms.size();
  report->failed += st->failures + st->shed + st->degraded;
  report->AddCheck("no_tombstoned_results", st->tombstoned_results == 0,
                   std::to_string(st->tombstoned_results) +
                       " deleted ids returned");

  // Every acknowledged insert that was not deleted is its own nearest
  // neighbour.
  std::vector<int64_t> live_rows;
  std::vector<int64_t> live_ids;
  for (size_t i = 0; i < st->inserted_ids.size(); ++i) {
    if (st->deleted_ids.count(st->inserted_ids[i]) > 0) continue;
    live_rows.push_back(st->inserted_rows[i]);
    live_ids.push_back(st->inserted_ids[i]);
  }
  size_t missing = 0;
  if (!live_rows.empty()) {
    const Dataset q = trace.update_vectors.Gather(live_rows);
    HARMONY_ASSIGN_OR_RETURN(ThreadedOutput out,
                             engine->SearchBatchThreaded(q.View(), w.k,
                                                         w.nprobe));
    for (size_t i = 0; i < live_ids.size(); ++i) {
      missing += out.results[i].empty() || out.results[i][0].id != live_ids[i];
    }
  }
  report->AddCheck("inserts_found", missing == 0,
                   std::to_string(missing) + " of " +
                       std::to_string(live_ids.size()) +
                       " acknowledged inserts not their own top-1");

  // The last acknowledged save holds every write: its tail sequence is the
  // engine's (merges since then advance only the generation).
  if (!st->write_ms.empty()) {
    auto loaded = UpdateLog::Load(log_path);
    const bool same = loaded.ok() && loaded.value().tail().seq ==
                                         engine->update_log().tail().seq;
    report->AddCheck("log_reload_tail", same,
                     loaded.ok() ? "saved tail " +
                                       loaded.value().tail().ToString() +
                                       ", engine tail " +
                                       engine->update_log().tail().ToString()
                                 : loaded.status().ToString());
  }

  // Recall on a check batch against the live set after the final merge.
  const IvfIndex& index = engine->index();
  Dataset live(std::vector<float>(), index.dim());
  std::vector<int64_t> live_id_of_row;
  for (size_t l = 0; l < index.nlist(); ++l) {
    const DatasetView vecs = index.ListVectors(l);
    for (size_t i = 0; i < vecs.size(); ++i) {
      HARMONY_RETURN_NOT_OK(live.Append(vecs.Row(i), vecs.dim()));
      live_id_of_row.push_back(index.ListIds(l)[i]);
    }
  }
  const size_t check_n =
      std::min<size_t>(rc.smoke ? 50 : 500, trace.queries.size());
  std::vector<int64_t> check_rows(check_n);
  std::iota(check_rows.begin(), check_rows.end(), int64_t{0});
  const Dataset check = trace.queries.Gather(check_rows);
  HARMONY_ASSIGN_OR_RETURN(
      auto gt, ComputeGroundTruth(live.View(), check.View(), w.k,
                                  Metric::kL2, kSetupThreads));
  for (auto& row : gt) {
    for (Neighbor& n : row) n.id = live_id_of_row[static_cast<size_t>(n.id)];
  }
  StopWatch watch;
  HARMONY_ASSIGN_OR_RETURN(ThreadedOutput out,
                           engine->SearchBatchThreaded(check.View(), w.k,
                                                       w.nprobe));
  phase->probe_batch_qps =
      static_cast<double>(check_n) / watch.ElapsedSeconds();
  phase->probe_batch = check;
  const double recall = MeanRecallAtK(out.results, gt, w.k);
  report->AddCheck("recall_floor", recall >= w.recall_floor,
                   "recall " + std::to_string(recall) + " vs floor " +
                       std::to_string(w.recall_floor));

  report->AddEndToEnd("qps", static_cast<double>(st->completed) / st->wall_s,
                      "1/s");
  report->AddEndToEnd("latency_ms_p50", Quantile(st->query_ms, 0.50), "ms");
  report->AddEndToEnd("latency_ms_p90", Quantile(st->query_ms, 0.90), "ms");
  report->AddEndToEnd("slo_attainment",
                      static_cast<double>(st->within_limit) /
                          static_cast<double>(st->offered),
                      "ratio");
  report->AddEndToEnd("recall_at_10", recall, "ratio");
  return Status::OK();
}

Status RunWriteProbe(const RunContext& rc, World* world, TimelineStats* st,
                     LogStats* log) {
  const size_t ops = rc.smoke ? 100 : kWriteProbeOps;
  QueryWorkloadSpec qspec;
  qspec.num_queries = ops;
  qspec.seed = StreamSeed(rc.seed, 31);
  HARMONY_ASSIGN_OR_RETURN(QueryWorkload vecs,
                           GenerateQueries(world->data.mixture, qspec));
  // An update-only timeline: the serving workload's write mix, paced so the
  // probe spans a few seconds instead of one burst.
  ArrivalTrace trace;
  trace.update_vectors = std::move(vecs.queries);
  Rng rng(StreamSeed(rc.seed, 32));
  const double delete_frac = ServeMixed().delete_frac;
  for (size_t i = 0; i < ops; ++i) {
    UpdateArrival u;
    u.at_seconds = static_cast<double>(i) / kWriteProbeRate;
    u.is_delete = rng.NextDouble() < delete_frac;
    if (u.is_delete) {
      u.target_draw = rng.NextU64();
    } else {
      u.vec_row = static_cast<int32_t>(i);
    }
    trace.updates.push_back(u);
  }
  PhaseSummary no_groups;
  return DriveTimeline(rc, world->engine.get(), trace, ServingSchedule(),
                       rc.workdir + "/update.log", st, log, &no_groups);
}

}  // namespace wallclock
}  // namespace harmony
