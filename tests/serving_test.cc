// The deterministic serving harness (serve/):
//  1. the arrival trace is a pure function of its spec — same seed, same
//     timestamps, tenants, and query bytes;
//  2. the schedule builder makes byte-identical decisions on replay (same
//     Fingerprint, admission order, group composition);
//  3. the full simulated serving run reproduces bit-for-bit: outcomes,
//     latencies, and histogram buckets;
//  4. the threaded backend replays the *same* schedule the simulated one
//     does (group-composition parity by fingerprint) even though its
//     measured latencies differ;
//  5. per-query completion times feed the latency percentiles.

#include "serve/serving.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serve/arrival.h"
#include "serve/scheduler.h"
#include "test_util.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

ArrivalSpec BaseSpec() {
  ArrivalSpec spec;
  spec.num_queries = 160;
  spec.num_tenants = 6;
  spec.offered_qps = 3000.0;
  spec.zipf_theta = 0.9;
  spec.burst_factor = 2.0;
  spec.mean_burst = 6.0;
  spec.slo_seconds = 0.03;
  spec.seed = 42;
  return spec;
}

ServePolicy BasePolicy() {
  ServePolicy policy;
  policy.max_linger_seconds = 0.002;
  policy.est_query_seconds = 0.003;
  policy.est_dispatch_seconds = 0.0005;
  policy.executors = 2;
  policy.max_pending_groups = 4;
  policy.mailbox_capacity = 32;
  return policy;
}

HarmonyOptions EngineOptions() {
  HarmonyOptions opts;
  opts.mode = Mode::kHarmony;
  opts.num_machines = 4;
  opts.ivf.nlist = 8;
  opts.ivf.seed = 7;
  return opts;
}

TEST(ArrivalTraceTest, PureFunctionOfSpec) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  const ArrivalSpec spec = BaseSpec();
  auto a = GenerateArrivalTrace(world.mixture, spec);
  auto b = GenerateArrivalTrace(world.mixture, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().arrivals.size(), spec.num_queries);
  EXPECT_EQ(a.value().queries.raw(), b.value().queries.raw());
  for (size_t i = 0; i < spec.num_queries; ++i) {
    const QueryArrival& x = a.value().arrivals[i];
    const QueryArrival& y = b.value().arrivals[i];
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.tenant_seq, y.tenant_seq);
    EXPECT_EQ(x.query_row, y.query_row);
  }
  // Arrivals are time-ordered with per-tenant FIFO sequence numbers.
  std::vector<uint16_t> next_seq(spec.num_tenants, 0);
  double prev = 0.0;
  for (const QueryArrival& arr : a.value().arrivals) {
    EXPECT_GE(arr.arrival_seconds, prev);
    prev = arr.arrival_seconds;
    EXPECT_EQ(arr.tenant_seq, next_seq[arr.tenant]++);
    EXPECT_EQ(arr.deadline_seconds,
              arr.arrival_seconds + spec.slo_seconds);
  }
}

TEST(ArrivalTraceTest, DifferentSeedsDifferentTimelines) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  ArrivalSpec spec = BaseSpec();
  auto a = GenerateArrivalTrace(world.mixture, spec);
  spec.seed = 43;
  auto b = GenerateArrivalTrace(world.mixture, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().arrivals[0].arrival_seconds,
            b.value().arrivals[0].arrival_seconds);
}

TEST(ServingScheduleTest, ByteIdenticalDecisionsOnReplay) {
  SmallWorld world = MakeSmallWorld(1500, 16, 4, 8, 10);
  auto trace = GenerateArrivalTrace(world.mixture, BaseSpec());
  ASSERT_TRUE(trace.ok());
  const ServePolicy policy = BasePolicy();
  const ServingSchedule a = BuildServingSchedule(trace.value(), policy);
  const ServingSchedule b = BuildServingSchedule(trace.value(), policy);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.admission_order, b.admission_order);
  EXPECT_EQ(a.group_of, b.group_of);
  for (size_t g = 0; g < a.groups.size(); ++g) {
    ASSERT_EQ(a.groups[g].members.size(), b.groups[g].members.size());
    EXPECT_EQ(a.groups[g].close_reason, b.groups[g].close_reason);
    EXPECT_EQ(a.groups[g].lane, b.groups[g].lane);
    EXPECT_EQ(a.groups[g].close_seconds, b.groups[g].close_seconds);
  }
  // The fingerprint is sensitive: a different policy changes it.
  ServePolicy other = policy;
  other.max_linger_seconds *= 2.0;
  EXPECT_NE(BuildServingSchedule(trace.value(), other).Fingerprint(),
            a.Fingerprint());
}

TEST(ServingFrontendTest, SimulatedRunIsBitForBitReproducible) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 10);
  HarmonyEngine engine(EngineOptions());
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto trace = GenerateArrivalTrace(world.mixture, BaseSpec());
  ASSERT_TRUE(trace.ok());

  ServingOptions sopts;
  sopts.policy = BasePolicy();
  ServingFrontend frontend(&engine, sopts);
  auto a = frontend.RunSimulated(trace.value());
  auto b = frontend.RunSimulated(trace.value());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  EXPECT_EQ(a.value().schedule.Fingerprint(),
            b.value().schedule.Fingerprint());
  EXPECT_EQ(a.value().outcome, b.value().outcome);
  // Virtual clock: measured latencies are part of the reproducible surface.
  EXPECT_EQ(a.value().latency_seconds, b.value().latency_seconds);
  EXPECT_EQ(a.value().dispatch_seconds, b.value().dispatch_seconds);
  EXPECT_EQ(a.value().stats.histogram.buckets(),
            b.value().stats.histogram.buckets());
  EXPECT_EQ(a.value().stats.latency_p99_seconds,
            b.value().stats.latency_p99_seconds);
}

TEST(ServingFrontendTest, ThreadedReplaysTheSameSchedule) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 10);
  HarmonyEngine engine(EngineOptions());
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  ArrivalSpec spec = BaseSpec();
  spec.num_queries = 60;  // keep the threaded run quick
  auto trace = GenerateArrivalTrace(world.mixture, spec);
  ASSERT_TRUE(trace.ok());

  ServingOptions sopts;
  sopts.policy = BasePolicy();
  ServingFrontend frontend(&engine, sopts);
  auto sim = frontend.RunSimulated(trace.value());
  auto thr = frontend.RunThreaded(trace.value());
  ASSERT_TRUE(sim.ok()) << sim.status();
  ASSERT_TRUE(thr.ok()) << thr.status();

  // Decisions are backend-independent: identical fingerprint, groups, shed
  // set, admission order. Only measured latencies may differ.
  EXPECT_EQ(sim.value().schedule.Fingerprint(),
            thr.value().schedule.Fingerprint());
  EXPECT_EQ(sim.value().schedule.admission_order,
            thr.value().schedule.admission_order);
  ASSERT_EQ(sim.value().schedule.groups.size(),
            thr.value().schedule.groups.size());
  for (size_t g = 0; g < sim.value().schedule.groups.size(); ++g) {
    const auto& gs = sim.value().schedule.groups[g];
    const auto& gt = thr.value().schedule.groups[g];
    ASSERT_EQ(gs.members.size(), gt.members.size());
    for (size_t j = 0; j < gs.members.size(); ++j) {
      EXPECT_EQ(gs.members[j].query_row, gt.members[j].query_row);
    }
  }
  // Shed queries are shed on both backends (never executed on either).
  for (size_t i = 0; i < trace.value().arrivals.size(); ++i) {
    const bool sim_shed =
        sim.value().outcome[i] == QueryOutcome::kShedDeadline ||
        sim.value().outcome[i] == QueryOutcome::kShedBackpressure;
    const bool thr_shed =
        thr.value().outcome[i] == QueryOutcome::kShedDeadline ||
        thr.value().outcome[i] == QueryOutcome::kShedBackpressure;
    EXPECT_EQ(sim_shed, thr_shed) << "arrival " << i;
    if (sim_shed) {
      EXPECT_EQ(sim.value().outcome[i], thr.value().outcome[i]);
    }
  }
  // Executed queries carry results on both backends.
  for (size_t i = 0; i < trace.value().arrivals.size(); ++i) {
    if (sim.value().schedule.group_of[i] < 0) continue;
    EXPECT_FALSE(sim.value().results[i].empty());
    EXPECT_FALSE(thr.value().results[i].empty());
  }
}

TEST(ServingFrontendTest, OverloadShedsAndDegradesInsteadOfQueueingForever) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 10);
  HarmonyEngine engine(EngineOptions());
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  // Offered load far beyond the estimated service capacity with a tight
  // SLO: admission control must shed/degrade rather than admit blindly.
  ArrivalSpec spec = BaseSpec();
  spec.offered_qps = 200000.0;
  spec.slo_seconds = 0.004;
  auto trace = GenerateArrivalTrace(world.mixture, spec);
  ASSERT_TRUE(trace.ok());

  ServingOptions sopts;
  sopts.policy = BasePolicy();
  sopts.policy.mailbox_capacity = 8;
  sopts.policy.max_pending_groups = 2;
  ServingFrontend frontend(&engine, sopts);
  auto report = frontend.RunSimulated(trace.value());
  ASSERT_TRUE(report.ok()) << report.status();
  const ServingStats& stats = report.value().stats;
  EXPECT_GT(stats.shed_deadline + stats.shed_backpressure +
                report.value().schedule.degraded_admits,
            0u);
  EXPECT_EQ(stats.offered, spec.num_queries);
  EXPECT_EQ(stats.completed + stats.timed_out + stats.shed_deadline +
                stats.shed_backpressure,
            spec.num_queries);
}

TEST(LatencyAccountingTest, PerQueryCompletionTimesFeedPercentiles) {
  SmallWorld world = MakeSmallWorld(2000, 16, 4, 8, 20);
  HarmonyEngine engine(EngineOptions());
  ASSERT_TRUE(engine.Build(world.mixture.vectors.View()).ok());
  auto result = engine.SearchBatch(world.workload.queries.View(), 5, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  const BatchResult& br = result.value();
  ASSERT_EQ(br.query_seconds.size(), 20u);
  std::vector<double> sorted = br.query_seconds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.front(), 0.0);
  // The reported percentiles come from exactly these values.
  EXPECT_EQ(br.stats.latency_p50_seconds, sorted[(20 - 1) / 2]);
  EXPECT_EQ(br.stats.latency_max_seconds, sorted.back());
}

}  // namespace
}  // namespace harmony
