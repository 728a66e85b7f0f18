// Cross-engine execution parity: a seeded sweep over the execution-option
// matrix (fault plan x grouping x threads_per_node x filtered search x
// pruning) asserting that the discrete-event simulator and the real-thread
// engine return identical ids/distances (bitwise) and agree on FaultStats.
//
// Alignment preconditions for bitwise result parity (same float
// accumulation order in both engines): enable_pipeline = false (both walk
// blocks 0..B-1), dynamic_dim_order = false, and one pipeline batch per
// chain. Pruning may differ in *when* it fires across engines (thresholds
// tighten in scheduling order) but never in the final heap — pruning is
// sound — so results match bitwise even with pruning on.
//
// FaultStats parity: every static loss decision is a pure function of the
// plan, so blocks_lost / shards_lost / degraded agree for any plan. Retry
// counters additionally agree when no message needs a resend (crash-only
// plans): the sim books result-hop retries per pipeline batch while the
// threaded engine models the client merge directly, so drop plans assert
// the static subset only.
//
// The PinnedGoldens tests additionally pin results, virtual clocks and
// byte counters to constants captured from the pre-refactor engines, so
// any refactor of the shared execution core must stay bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "core/chain_exec.h"
#include "core/coordinator.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/router.h"
#include "index/kernel_tune.h"
#include "index/pq.h"
#include "index/scan_kernel.h"
#include "net/fault.h"
#include "test_util.h"

namespace harmony {
namespace {

using testing_util::MakeSmallWorld;
using testing_util::SmallWorld;

struct RunSetup {
  PartitionPlan plan;
  std::vector<WorkerStore> stores;
  PrewarmCache prewarm;
  BatchRouting routing;
  /// Trained iff the setup was built with_pq; ExecOptions::pq borrows it.
  GridQuantizer pq;
};

RunSetup MakeSetup(const SmallWorld& world, size_t machines, size_t b_vec,
                   size_t b_dim, size_t nprobe, size_t group_size,
                   bool with_norms = false, size_t replication = 1,
                   bool with_pq = false) {
  RunSetup setup;
  auto plan = BuildPartitionPlan(world.index, machines, b_vec, b_dim,
                                 ShardAssignment::kGreedyBalanced);
  EXPECT_TRUE(plan.ok());
  setup.plan = std::move(plan).value();
  EXPECT_TRUE(ApplyReplication(&setup.plan, replication).ok());
  if (with_pq) {
    EXPECT_TRUE(setup.pq
                    .Train(world.mixture.vectors.View(), setup.plan.dim_ranges,
                           GridPqParams{})
                    .ok());
  }
  auto stores = BuildWorkerStores(world.index, setup.plan, with_norms,
                                  with_pq ? &setup.pq : nullptr);
  EXPECT_TRUE(stores.ok());
  setup.stores = std::move(stores).value();
  setup.prewarm = PrewarmCache::Build(world.index, 4);
  setup.routing = RouteBatch(world.index, setup.plan,
                             world.workload.queries.View(), nprobe,
                             group_size);
  return setup;
}

void ExpectBitIdenticalResults(const std::vector<std::vector<Neighbor>>& a,
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

enum class FaultMode { kNone, kCrash, kDrop };

struct MatrixCase {
  FaultMode faults;
  bool grouping;
  size_t threads_per_node;
  bool filtered;
  bool pruning;
  /// Replicas per grid block; the setup's plan must match.
  size_t replication = 1;
  /// Straggler threshold enabling hedged requests (0 = off).
  double hedge_after = 0.0;
  bool enable_failover = true;
  /// Quantized block streams: ADC scans over PQ codes with a full exact
  /// rerank (rerank_depth = 0), so both engines still agree bitwise — the
  /// rank barrier holds only exact float distances. The setup must have
  /// been built with_pq.
  bool use_pq = false;
  /// Wall budget of the threaded batch (0 = none); a batch that overruns it
  /// fails the case with a Timeout status.
  double max_wall_seconds = 0.0;
};

void ExpectEnginesAgree(const SmallWorld& world, const RunSetup& setup,
                        size_t machines, const std::vector<int32_t>& labels,
                        const MatrixCase& mc) {
  SCOPED_TRACE(::testing::Message()
               << "faults=" << static_cast<int>(mc.faults)
               << " grouping=" << mc.grouping << " tpn="
               << mc.threads_per_node << " filtered=" << mc.filtered
               << " pruning=" << mc.pruning << " R=" << mc.replication
               << " hedge=" << mc.hedge_after
               << " failover=" << mc.enable_failover
               << " pq=" << mc.use_pq);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pruning = mc.pruning;
  opts.enable_pipeline = false;     // aligned 0..B-1 block order
  opts.dynamic_dim_order = false;   // no load-aware reordering
  opts.pipeline_batch = 1u << 20;   // one batch per chain
  opts.shared_scans = mc.grouping;
  opts.query_group_size = mc.grouping ? 4 : 1;
  opts.threads_per_node = mc.threads_per_node;
  opts.replication_factor = mc.replication;
  opts.hedge_after = mc.hedge_after;
  opts.enable_failover = mc.enable_failover;
  if (mc.filtered) {
    opts.labels = &labels;
    opts.allowed_label = 1;
  }
  if (mc.use_pq) {
    opts.use_pq_streams = true;
    opts.pq = &setup.pq;
    opts.rerank_depth = 0;  // exact full rerank: bitwise parity holds
  }
  FaultPlan plan;
  if (mc.faults == FaultMode::kCrash) {
    plan.crashes.push_back({1, 0.0});  // dead from the start, both engines
  } else if (mc.faults == FaultMode::kDrop) {
    plan.seed = 2024;
    plan.drop_prob = 0.25;
  }
  if (mc.hedge_after > 0.0) {
    // Make node 0 a straggler so the hedge threshold actually trips.
    plan.delay_multiplier = {3.0};
  }
  opts.faults = plan;  // the threaded engine reads the plan from opts
  opts.max_wall_seconds = mc.max_wall_seconds;

  SimCluster cluster(machines);
  if (plan.enabled()) cluster.SetFaultPlan(plan);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &cluster);
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(sim.ok()) << sim.status();
  ASSERT_TRUE(thr.ok()) << thr.status();

  ExpectBitIdenticalResults(sim.value().results, thr.value().results);
  // Every query's completion was stamped: each chain, executed or skipped
  // on the client, was accounted for.
  ASSERT_EQ(thr.value().query_seconds.size(),
            world.workload.queries.size());
  for (const double seconds : thr.value().query_seconds) {
    EXPECT_GE(seconds, 0.0);
  }
  EXPECT_EQ(sim.value().degraded, thr.value().degraded);
  EXPECT_EQ(sim.value().faults.degraded_queries,
            thr.value().faults.degraded_queries);
  EXPECT_EQ(sim.value().faults.blocks_lost, thr.value().faults.blocks_lost);
  EXPECT_EQ(sim.value().faults.shards_lost, thr.value().faults.shards_lost);
  // Failover and hedge bookings come from the static chain schedule — a
  // pure function of the plan — so they agree under every fault mode.
  EXPECT_EQ(sim.value().faults.failovers, thr.value().faults.failovers);
  EXPECT_EQ(sim.value().faults.hedged, thr.value().faults.hedged);
  if (mc.faults != FaultMode::kDrop) {
    // No resends anywhere: the full FaultStats must agree.
    EXPECT_EQ(sim.value().faults.messages_dropped,
              thr.value().faults.messages_dropped);
    EXPECT_EQ(sim.value().faults.retries, thr.value().faults.retries);
  }
  if (mc.faults == FaultMode::kNone && mc.hedge_after == 0.0) {
    EXPECT_FALSE(sim.value().faults.any());
    EXPECT_FALSE(thr.value().faults.any());
  }
  if (mc.use_pq) {
    // Code streams really flowed on both engines.
    EXPECT_GT(thr.value().bytes_compressed, 0u);
    EXPECT_GT(cluster.Breakdown().total_bytes_compressed, 0u);
    if (!mc.pruning && mc.faults == FaultMode::kNone &&
        mc.hedge_after == 0.0) {
      // With pruning off every chain streams every candidate row, so the
      // union-of-group-rows byte accounting agrees exactly across engines
      // — total, and compressed share.
      const ClusterBreakdown b = cluster.Breakdown();
      EXPECT_EQ(b.total_bytes_streamed, thr.value().bytes_streamed);
      EXPECT_EQ(b.total_bytes_compressed, thr.value().bytes_compressed);
    }
  }
}

TEST(ExecParityTest, OptionMatrixSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  // One routing per group size; the chain order itself never depends on it.
  const RunSetup grouped = MakeSetup(world, machines, 2, 2, 4, 4);
  const RunSetup solo = MakeSetup(world, machines, 2, 2, 4, 1);
  std::vector<int32_t> labels(world.index.num_vectors());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 2);
  }

  for (const FaultMode faults :
       {FaultMode::kNone, FaultMode::kCrash, FaultMode::kDrop}) {
    for (const bool grouping : {false, true}) {
      for (const size_t tpn : {size_t{1}, size_t{4}}) {
        for (const bool filtered : {false, true}) {
          for (const bool pruning : {false, true}) {
            const MatrixCase mc{faults, grouping, tpn, filtered, pruning};
            ExpectEnginesAgree(world, grouping ? grouped : solo, machines,
                               labels, mc);
          }
        }
      }
    }
  }
}

// Chains the candidate fill leaves empty: every candidate already scored by
// prewarm (a cache holding whole lists), or no row admitted by the label
// filter. Every chain of the batch is then skipped on the client after the
// fill; the engines must still agree bitwise, stamp every query's
// completion and finish inside the wall budget, grouped and solo, on one
// and two threads per node.
TEST(ExecParityTest, EmptiedChainsSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  size_t largest_list = 0;
  for (size_t l = 0; l < world.index.nlist(); ++l) {
    largest_list = std::max(largest_list, world.index.ListIds(l).size());
  }
  // The matrix admits label 1 when filtered; no row carries it.
  const std::vector<int32_t> no_match(world.index.num_vectors(), 0);
  for (const bool grouping : {false, true}) {
    RunSetup setup = MakeSetup(world, machines, 2, 2, 4, grouping ? 4 : 1);
    RunSetup prewarm_all =
        MakeSetup(world, machines, 2, 2, 4, grouping ? 4 : 1);
    prewarm_all.prewarm = PrewarmCache::Build(world.index, largest_list);
    for (const size_t tpn : {size_t{1}, size_t{2}}) {
      for (const bool filtered : {false, true}) {
        MatrixCase mc{FaultMode::kNone, grouping, tpn, filtered,
                      /*pruning=*/true};
        mc.max_wall_seconds = 60.0;
        ExpectEnginesAgree(world, filtered ? setup : prewarm_all, machines,
                           no_match, mc);
      }
    }
  }
}

// Candidate membership, checked directly: both engines build their arrays
// through BuildChainCandidateArrays, so the parity sweeps cannot catch a
// wrong prewarm or label check. For every chain of a batch — with a
// prewarmed set mixing ids of the chain's own lists, ids of other lists and
// ids no store holds, with and without a label filter — the arrays must
// equal, in order, a naive walk over the chain's block-0 slices, and must
// fill the columns ReserveChainCandidateArrays reserved without moving
// them.
TEST(ExecParityTest, CandidateArraysMatchNaiveSliceWalk) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  std::vector<int32_t> labels(world.index.num_vectors());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 3);
  }
  const int64_t past_store = static_cast<int64_t>(world.index.num_vectors());
  size_t skipped_in_chain = 0;
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const bool ip = metric != Metric::kL2;
    const RunSetup setup = MakeSetup(world, 4, 2, 2, 4, 1, /*with_norms=*/ip);
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "ip=" << ip
                                        << " filtered=" << filtered);
      ExecOptions opts;
      opts.k = 10;
      opts.nprobe = 4;
      opts.metric = metric;
      if (filtered) {
        opts.labels = &labels;
        opts.allowed_label = 1;
      }
      auto made = MakeExecContext(world.index, setup.plan, setup.stores,
                                  setup.prewarm, setup.routing,
                                  world.workload.queries.View(), opts);
      ASSERT_TRUE(made.ok()) << made.status();
      const ExecContext& ctx = made.value();
      ASSERT_EQ(ctx.use_norms, ip);
      for (const QueryChain& chain : setup.routing.chains) {
        ChainCandidates cand;
        BuildChainSliceTable(ctx, chain, &cand);
        std::unordered_set<int64_t> prewarmed = {past_store + 7,
                                                 2 * past_store + 1};
        for (size_t li = 0; li < chain.lists.size(); ++li) {
          const ListSlice* ls = cand.slices[li];
          if (ls == nullptr) continue;
          for (size_t r = 0; r < ls->slice.num_rows(); r += 3) {
            prewarmed.insert(ls->slice.GlobalId(r));
          }
        }
        for (size_t l = 0; l < world.index.nlist(); ++l) {
          const bool probed =
              std::find(chain.lists.begin(), chain.lists.end(),
                        static_cast<int32_t>(l)) != chain.lists.end();
          if (!probed && !world.index.ListIds(l).empty()) {
            prewarmed.insert(world.index.ListIds(l).front());
          }
        }

        std::vector<int64_t> want_id;
        std::vector<int32_t> want_list;
        std::vector<int32_t> want_row;
        std::vector<float> want_norm;
        for (size_t li = 0; li < chain.lists.size(); ++li) {
          const ListSlice* ls = cand.slices[li];
          if (ls == nullptr) continue;
          for (size_t r = 0; r < ls->slice.num_rows(); ++r) {
            const int64_t gid = ls->slice.GlobalId(r);
            if (prewarmed.count(gid) > 0) {
              ++skipped_in_chain;
              continue;
            }
            if (filtered && labels[static_cast<size_t>(gid)] != 1) continue;
            want_id.push_back(gid);
            want_list.push_back(static_cast<int32_t>(li));
            want_row.push_back(static_cast<int32_t>(r));
            if (ip) want_norm.push_back(ls->total_norm_sq[r]);
          }
        }

        ReserveChainCandidateArrays(ctx, chain, &cand);
        const int64_t* id_data = cand.id.data();
        const float* partial_data = cand.partial.data();
        BuildChainCandidateArrays(ctx, chain, prewarmed, &cand);
        EXPECT_EQ(cand.id, want_id);
        EXPECT_EQ(cand.list, want_list);
        EXPECT_EQ(cand.row, want_row);
        EXPECT_EQ(cand.partial, std::vector<float>(want_id.size(), 0.0f));
        EXPECT_EQ(cand.rem_p_sq, want_norm);
        EXPECT_TRUE(cand.bound.empty());
        EXPECT_EQ(cand.id.data(), id_data);
        EXPECT_EQ(cand.partial.data(), partial_data);
      }
    }
  }
  EXPECT_GT(skipped_in_chain, 0u);
}

// Kernel dispatch tiers and the plan-recorded kernel table
// (docs/kernels.md): for every tier this machine can run, pinning the tier
// keeps the two engines bit-identical. AVX2 and AVX-512 are one bitwise
// family, so their results must also match each other. (Each tier's shape
// is bit-transparent: ScanKernelTest.ShapedBatchBitIdenticalForAllShapes.)
TEST(ExecParityTest, KernelTierAndTunePinSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup setup = MakeSetup(world, machines, 2, 2, 4, 4);

  std::vector<std::vector<Neighbor>> avx2_results, avx512_results;
  for (const KernelTier tier :
       {KernelTier::kPortable, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!KernelTierAvailable(tier)) continue;
    SCOPED_TRACE(KernelTierName(tier));
    ExecOptions opts;  // engine defaults: pipeline + pruning + grouping on
    opts.k = 10;
    opts.nprobe = 4;
    opts.kernel_tier = tier;
    SimCluster cluster(machines);
    auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                                setup.prewarm, setup.routing,
                                world.workload.queries.View(), opts, &cluster);
    auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                               setup.prewarm, setup.routing,
                               world.workload.queries.View(), opts);
    ASSERT_TRUE(sim.ok()) << sim.status();
    ASSERT_TRUE(thr.ok()) << thr.status();
    ExpectBitIdenticalResults(sim.value().results, thr.value().results);
    if (tier == KernelTier::kAvx2) avx2_results = sim.value().results;
    if (tier == KernelTier::kAvx512) avx512_results = sim.value().results;
  }
  if (!avx2_results.empty() && !avx512_results.empty()) {
    ExpectBitIdenticalResults(avx2_results, avx512_results);
  }
}

// Replicated plans: the same cross-engine agreement must hold with R > 1
// replicas per grid block, with and without hedging and failover, under
// every fault mode. Hedging cases make node 0 a straggler so the threshold
// trips; failover/hedge counters are pure functions of the plan and must
// agree bit-for-bit across engines.
TEST(ExecParityTest, ReplicationMatrixSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const std::vector<int32_t> labels;  // unfiltered throughout
  for (const size_t replication : {size_t{2}, size_t{3}}) {
    const RunSetup grouped = MakeSetup(world, machines, 2, 2, 4, 4,
                                       /*with_norms=*/false, replication);
    const RunSetup solo = MakeSetup(world, machines, 2, 2, 4, 1,
                                    /*with_norms=*/false, replication);
    for (const FaultMode faults :
         {FaultMode::kNone, FaultMode::kCrash, FaultMode::kDrop}) {
      for (const bool grouping : {false, true}) {
        for (const double hedge : {0.0, 2.0}) {
          for (const bool failover : {true, false}) {
            const MatrixCase mc{faults,      grouping, /*tpn=*/1,
                                /*filtered=*/false,    /*pruning=*/true,
                                replication, hedge,    failover};
            ExpectEnginesAgree(world, grouping ? grouped : solo, machines,
                               labels, mc);
          }
        }
      }
    }
    // Lane-scheduled compute path once per replication factor.
    const MatrixCase lanes{FaultMode::kDrop, true,        /*tpn=*/4,
                           false,            true,        replication,
                           /*hedge=*/2.0,    /*failover=*/true};
    ExpectEnginesAgree(world, grouped, machines, labels, lanes);
  }
}

// Quantized block streams (docs/quantization.md): the full engine-parity
// contract must survive ADC scans over PQ codes. With rerank_depth = 0 the
// rank barrier holds only exact float distances, so results stay bitwise
// identical across engines under every fault mode, with pruning on or off
// — ADC-bound pruning is sound, it only changes *which* rows are streamed,
// never the final heap.
TEST(ExecParityTest, PqStreamsMatrixSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup grouped =
      MakeSetup(world, machines, 2, 2, 4, 4, /*with_norms=*/false,
                /*replication=*/1, /*with_pq=*/true);
  const RunSetup solo =
      MakeSetup(world, machines, 2, 2, 4, 1, /*with_norms=*/false,
                /*replication=*/1, /*with_pq=*/true);
  std::vector<int32_t> labels(world.index.num_vectors());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int32_t>(i % 2);
  }

  for (const FaultMode faults :
       {FaultMode::kNone, FaultMode::kCrash, FaultMode::kDrop}) {
    for (const bool grouping : {false, true}) {
      for (const size_t tpn : {size_t{1}, size_t{4}}) {
        for (const bool pruning : {false, true}) {
          MatrixCase mc{faults, grouping, tpn, /*filtered=*/false, pruning};
          mc.use_pq = true;
          ExpectEnginesAgree(world, grouping ? grouped : solo, machines,
                             labels, mc);
        }
      }
    }
  }
  // Filtered search composes with quantized streams.
  MatrixCase filtered{FaultMode::kNone, /*grouping=*/true, /*tpn=*/1,
                      /*filtered=*/true, /*pruning=*/true};
  filtered.use_pq = true;
  ExpectEnginesAgree(world, grouped, machines, labels, filtered);
}

// Quantized streams x replication x faults x hedging: failover re-routes a
// chain's code-stream hops to surviving replicas (every replica stores the
// same codes), and the engines must still agree bitwise.
TEST(ExecParityTest, PqStreamsReplicatedFaultSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup setup =
      MakeSetup(world, machines, 2, 2, 4, 4, /*with_norms=*/false,
                /*replication=*/2, /*with_pq=*/true);
  const std::vector<int32_t> labels;  // unfiltered throughout
  for (const FaultMode faults :
       {FaultMode::kNone, FaultMode::kCrash, FaultMode::kDrop}) {
    for (const double hedge : {0.0, 2.0}) {
      MatrixCase mc{faults,
                    /*grouping=*/true,
                    /*tpn=*/1,
                    /*filtered=*/false,
                    /*pruning=*/true,
                    /*replication=*/2,
                    hedge,
                    /*failover=*/true};
      mc.use_pq = true;
      ExpectEnginesAgree(world, setup, machines, labels, mc);
    }
  }
}

// Acceptance (ISSUE 7): with the pipeline off and a full exact rerank the
// quantized path returns the *float path's results bit for bit* — the ADC
// stage only decides streaming order and prune timing, the rank barrier
// re-scores every survivor from the float blocks.
TEST(ExecParityTest, PqFullRerankMatchesFloatPath) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup flt = MakeSetup(world, machines, 2, 2, 4, 4);
  const RunSetup pq =
      MakeSetup(world, machines, 2, 2, 4, 4, /*with_norms=*/false,
                /*replication=*/1, /*with_pq=*/true);

  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pipeline = false;
  opts.dynamic_dim_order = false;
  opts.pipeline_batch = 1u << 20;

  SimCluster flt_cluster(machines);
  auto flt_out = ExecuteSimulated(world.index, flt.plan, flt.stores,
                                  flt.prewarm, flt.routing,
                                  world.workload.queries.View(), opts,
                                  &flt_cluster);
  ASSERT_TRUE(flt_out.ok()) << flt_out.status();

  ExecOptions pq_opts = opts;
  pq_opts.use_pq_streams = true;
  pq_opts.pq = &pq.pq;
  pq_opts.rerank_depth = 0;
  SimCluster pq_cluster(machines);
  auto pq_out = ExecuteSimulated(world.index, pq.plan, pq.stores, pq.prewarm,
                                 pq.routing, world.workload.queries.View(),
                                 pq_opts, &pq_cluster);
  ASSERT_TRUE(pq_out.ok()) << pq_out.status();

  ExpectBitIdenticalResults(flt_out.value().results, pq_out.value().results);
  // And the quantized run streamed compressed bytes the float run didn't.
  EXPECT_GT(pq_cluster.Breakdown().total_bytes_compressed, 0u);
  EXPECT_EQ(flt_cluster.Breakdown().total_bytes_compressed, 0u);
}

// The depth cap is a property of the *chain*, not of the simulator's
// pipeline batching: with the vector pipeline on and a batch size small
// enough to split every chain many ways, the simulator must hold finished
// batches at the chain's rank barrier and pick the rerank set chain-wide —
// bit-identical to the threaded engine (which never batches) and to a
// one-batch-per-chain run. Pruning stays off so the pick is the pure
// top-`depth` by ADC score and the byte bill has no tau dependence; with
// b_dim = 2 the two engines' block orders commute in the ADC sum, so the
// pick agrees bitwise.
TEST(ExecParityTest, PqDepthCapSpansPipelineBatches) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup pq =
      MakeSetup(world, machines, 2, 2, 4, 4, /*with_norms=*/false,
                /*replication=*/1, /*with_pq=*/true);

  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pruning = false;
  opts.enable_pipeline = true;
  opts.dynamic_dim_order = false;
  opts.pipeline_batch = 64;  // many batches per chain
  opts.use_pq_streams = true;
  opts.pq = &pq.pq;
  opts.rerank_depth = 32;

  SimCluster batched_cluster(machines);
  auto batched = ExecuteSimulated(world.index, pq.plan, pq.stores, pq.prewarm,
                                  pq.routing, world.workload.queries.View(),
                                  opts, &batched_cluster);
  ASSERT_TRUE(batched.ok()) << batched.status();

  auto threaded = ExecuteThreaded(world.index, pq.plan, pq.stores, pq.prewarm,
                                  pq.routing, world.workload.queries.View(),
                                  opts);
  ASSERT_TRUE(threaded.ok()) << threaded.status();

  ExecOptions one_batch = opts;
  one_batch.enable_pipeline = false;
  one_batch.pipeline_batch = 1u << 20;
  SimCluster solo_cluster(machines);
  auto solo = ExecuteSimulated(world.index, pq.plan, pq.stores, pq.prewarm,
                               pq.routing, world.workload.queries.View(),
                               one_batch, &solo_cluster);
  ASSERT_TRUE(solo.ok()) << solo.status();

  ExpectBitIdenticalResults(batched.value().results, threaded.value().results);
  ExpectBitIdenticalResults(batched.value().results, solo.value().results);
  // Rerank row re-reads are capped by the chain-wide depth, so the byte
  // bill is invariant to batching too.
  EXPECT_EQ(batched_cluster.Breakdown().total_bytes_streamed,
            solo_cluster.Breakdown().total_bytes_streamed);
  EXPECT_EQ(batched_cluster.Breakdown().total_bytes_streamed,
            threaded.value().bytes_streamed);
  EXPECT_EQ(batched_cluster.Breakdown().total_bytes_compressed,
            threaded.value().bytes_compressed);
}

// The rerank depth cap selects its picks instead of sorting every
// candidate. Partials with many ties stress the id tie-break: at depth 1,
// 160, count - 1 and count the reranked set and every distance must equal a
// test-local full-sort reference, bitwise, under L2 and IP.
TEST(ExecParityTest, RerankSelectionMatchesFullSort) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const float kInf = std::numeric_limits<float>::infinity();
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const bool ip = metric != Metric::kL2;
    SCOPED_TRACE(::testing::Message() << "ip=" << ip);
    const RunSetup setup = MakeSetup(world, 4, 2, 2, 4, 1, /*with_norms=*/ip,
                                     /*replication=*/1, /*with_pq=*/true);
    ExecOptions opts;
    opts.metric = metric;
    opts.k = 10;
    opts.nprobe = 4;
    opts.use_pq_streams = true;
    opts.pq = &setup.pq;
    // A temporary queries view is safe: the context holds it by value.
    auto made = MakeExecContext(world.index, setup.plan, setup.stores,
                                setup.prewarm, setup.routing,
                                world.workload.queries.View(), opts);
    ASSERT_TRUE(made.ok()) << made.status();
    const ExecContext& ctx = made.value();
    const ScanKernelTable& kt = ScanKernelsFor(ctx.kernel_tune->tier);
    const uint64_t scanned = (uint64_t{1} << ctx.b_dim) - 1;

    // The chain with the most candidates.
    const QueryChain* chain = nullptr;
    ChainCandidates cand;
    for (const QueryChain& c : setup.routing.chains) {
      ChainCandidates cc;
      BuildChainSliceTable(ctx, c, &cc);
      BuildChainCandidateArrays(ctx, c, {}, &cc);
      if (chain == nullptr || cc.id.size() > cand.id.size()) {
        chain = &c;
        cand = std::move(cc);
      }
    }
    const size_t n = cand.id.size();
    ASSERT_GT(n, 161u);
    for (size_t i = 0; i < n; ++i) {
      cand.partial[i] = static_cast<float>((i * 7) % 5);  // five-way ties
    }

    const float* qrow = ctx.queries.Row(static_cast<size_t>(chain->query));
    for (const size_t depth : {size_t{1}, size_t{160}, n - 1, n}) {
      SCOPED_TRACE(::testing::Message() << "depth=" << depth);
      opts.rerank_depth = depth;
      std::vector<float> got(n);
      const size_t reranked = RerankChainCandidates(
          ctx, *chain, cand, scanned, 0, n, /*skip_by_tau=*/false, 0.0f,
          got.data());

      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const float ka = ip ? -cand.partial[a] : cand.partial[a];
        const float kb = ip ? -cand.partial[b] : cand.partial[b];
        return ka != kb ? ka < kb : cand.id[a] < cand.id[b];
      });
      order.resize(depth);
      std::vector<float> want(n, kInf);
      for (const size_t i : order) {
        float acc = 0.0f;
        for (size_t d = 0; d < ctx.b_dim; ++d) {
          const DimRange r = ctx.plan->dim_ranges[d];
          const ListSlice* ls =
              cand.slices[d * chain->lists.size() +
                          static_cast<size_t>(cand.list[i])];
          const float* row = ls->slice.Row(static_cast<size_t>(cand.row[i]));
          acc += ip ? kt.ip_row(qrow + r.begin, row, r.width())
                    : kt.l2_row(qrow + r.begin, row, r.width());
        }
        want[i] = ip ? -acc : acc;
      }
      EXPECT_EQ(reranked, depth);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << "candidate " << i;
      }
    }
  }
}

// Acceptance (ISSUE 5): with 5% drops and one node crashed from the start,
// R = 2 + failover routing completes every query clean — zero degraded
// queries and results bitwise equal to the fault-free R = 2 run — on both
// engines. The same fault plan at R = 1 degrades (the crashed node's block
// is simply gone), and the two engines agree byte-for-byte on which
// queries those are.
TEST(ExecParityTest, FailoverZeroDegradedUnderCrashAndDrops) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const size_t machines = 4;
  const RunSetup setup = MakeSetup(world, machines, 2, 2, 4, 1,
                                   /*with_norms=*/false, /*replication=*/2);

  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.enable_pipeline = false;    // aligned block order (bitwise parity)
  opts.dynamic_dim_order = false;
  opts.pipeline_batch = 1u << 20;
  opts.replication_factor = 2;

  // Fault-free R = 2 baseline.
  SimCluster healthy_cluster(machines);
  auto healthy = ExecuteSimulated(world.index, setup.plan, setup.stores,
                                  setup.prewarm, setup.routing,
                                  world.workload.queries.View(), opts,
                                  &healthy_cluster);
  ASSERT_TRUE(healthy.ok()) << healthy.status();

  // Pick (deterministically, by brute force over seeds) a drop seed where
  // every replica hop on a live machine delivers within the retry budget:
  // per-key loss is drop_prob^(max_retries+1) = 1.25e-4, so most seeds
  // qualify. Under that seed failover routing can always land every hop.
  FaultPlan fplan;
  fplan.drop_prob = 0.05;
  fplan.crashes.push_back({1, 0.0});
  const uint32_t budget = static_cast<uint32_t>(opts.max_retries);
  const size_t b_dim = setup.plan.num_dim_blocks;
  bool found = false;
  for (uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    fplan.seed = seed;
    const FaultInjector inj(fplan);
    bool clean = true;
    for (const QueryChain& chain : setup.routing.chains) {
      for (size_t d = 0; d <= b_dim && clean; ++d) {
        for (size_t r = 0; r < 2; ++r) {
          if (d < b_dim &&
              inj.CrashedFromStart(static_cast<size_t>(
                  setup.plan.ReplicaOf(chain.shard, d, r)))) {
            continue;  // dead replicas may burn their budget
          }
          if (inj.DeliveryAttempts(
                  ReplicaHopKey(chain.query, chain.shard, d, r), budget) ==
              0) {
            clean = false;
            break;
          }
        }
      }
      if (!clean) break;
    }
    found = clean;
  }
  ASSERT_TRUE(found) << "no clean drop seed in [1, 64]";
  opts.faults = fplan;

  SimCluster faulty_cluster(machines);
  faulty_cluster.SetFaultPlan(fplan);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts,
                              &faulty_cluster);
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(sim.ok()) << sim.status();
  ASSERT_TRUE(thr.ok()) << thr.status();

  // Zero degraded, nothing lost — and the drops really happened.
  EXPECT_EQ(sim.value().faults.degraded_queries, 0u);
  EXPECT_EQ(thr.value().faults.degraded_queries, 0u);
  EXPECT_EQ(sim.value().faults.blocks_lost, 0u);
  EXPECT_EQ(thr.value().faults.blocks_lost, 0u);
  EXPECT_EQ(sim.value().faults.shards_lost, 0u);
  EXPECT_EQ(thr.value().faults.shards_lost, 0u);
  EXPECT_GT(sim.value().faults.messages_dropped, 0u);

  // Recall is exactly the fault-free recall: bitwise-identical results.
  ExpectBitIdenticalResults(healthy.value().results, sim.value().results);
  ExpectBitIdenticalResults(healthy.value().results, thr.value().results);

  // The same fault plan without replication degrades: the crashed node's
  // grid block has no replica to fail over to. Both engines agree on the
  // degraded set and the (partial) results byte-for-byte.
  const RunSetup r1 = MakeSetup(world, machines, 2, 2, 4, 1);
  ExecOptions opts1 = opts;
  opts1.replication_factor = 1;
  SimCluster r1_cluster(machines);
  r1_cluster.SetFaultPlan(fplan);
  auto sim1 = ExecuteSimulated(world.index, r1.plan, r1.stores, r1.prewarm,
                               r1.routing, world.workload.queries.View(),
                               opts1, &r1_cluster);
  auto thr1 = ExecuteThreaded(world.index, r1.plan, r1.stores, r1.prewarm,
                              r1.routing, world.workload.queries.View(),
                              opts1);
  ASSERT_TRUE(sim1.ok()) << sim1.status();
  ASSERT_TRUE(thr1.ok()) << thr1.status();
  EXPECT_GT(sim1.value().faults.degraded_queries, 0u);
  EXPECT_EQ(sim1.value().faults.degraded_queries,
            thr1.value().faults.degraded_queries);
  EXPECT_EQ(sim1.value().degraded, thr1.value().degraded);
  ExpectBitIdenticalResults(sim1.value().results, thr1.value().results);
}

// ---------------------------------------------------------------------------
// Pinned goldens: the default-option engines must stay bit-identical to the
// pre-refactor implementations — results, virtual clocks, op and byte
// counters. Captured at PR 3 HEAD with the standard Release build; all
// arithmetic below is integer-derived or IEEE-deterministic, so the values
// are machine-independent as long as the kernels keep their pinned
// bit-identity (scan_kernel_test). Result checksums are pinned per kernel
// family: AVX2 and AVX-512 are bit-identical to each other, but the
// portable kernels accumulate rows wider than 16 in a different order.

/// The checksum of the kernel family the engine's batches dispatch on (the
/// kernel table kAuto resolves to; HARMONY_KERNEL_TIER pins it).
uint64_t ByKernelFamily(uint64_t simd, uint64_t portable) {
  return ResolveKernelTune(KernelTier::kAuto).tier == KernelTier::kPortable
             ? portable
             : simd;
}

/// Order-independent checksum over a result set (commutative fold per
/// query, then a query-position multiplier), so it is stable across merge
/// orders but pins every id and every distance bit.
uint64_t ResultChecksum(const std::vector<std::vector<Neighbor>>& results) {
  uint64_t h = 0;
  for (size_t q = 0; q < results.size(); ++q) {
    uint64_t hq = 0;
    for (const Neighbor& n : results[q]) {
      hq += static_cast<uint64_t>(n.id) * 0x9E3779B97F4A7C15ull +
            std::bit_cast<uint32_t>(n.distance);
    }
    h += hq * (2 * q + 1);
  }
  return h;
}

struct SimGolden {
  uint64_t results_checksum;
  uint64_t makespan_bits;      // std::bit_cast<uint64_t>(Makespan())
  uint64_t client_clock_bits;  // client().clock()
  uint64_t total_ops;
  uint64_t total_bytes;
  uint64_t total_bytes_streamed;
  uint64_t total_candidates;
  uint64_t dropped_total;
  uint64_t fault_fingerprint;  // packed FaultStats counters
};

uint64_t FaultFingerprint(const FaultStats& f) {
  return f.messages_dropped * 1000003ull + f.retries * 10007ull +
         f.blocks_lost * 101ull + f.shards_lost * 11ull +
         static_cast<uint64_t>(f.degraded_queries);
}

void PrintAndCheckSim(const SimGolden& want, const PipelineOutput& out,
                      const SimCluster& cluster) {
  const ClusterBreakdown b = cluster.Breakdown();
  uint64_t dropped_total = 0;
  for (const uint64_t d : out.prune.dropped_after) dropped_total += d;
  const SimGolden got{
      ResultChecksum(out.results),
      std::bit_cast<uint64_t>(cluster.Makespan()),
      std::bit_cast<uint64_t>(cluster.client().clock()),
      b.total_ops,
      b.total_bytes,
      b.total_bytes_streamed,
      out.prune.total_candidates,
      dropped_total,
      FaultFingerprint(out.faults)};
  std::printf("golden capture: {0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull, 0x%016" PRIx64 "ull, %" PRIu64 "ull, %" PRIu64
              "ull, %" PRIu64 "ull, %" PRIu64 "ull, %" PRIu64 "ull, %" PRIu64
              "ull}\n",
              got.results_checksum, got.makespan_bits, got.client_clock_bits,
              got.total_ops, got.total_bytes, got.total_bytes_streamed,
              got.total_candidates, got.dropped_total, got.fault_fingerprint);
  EXPECT_EQ(want.results_checksum, got.results_checksum);
  EXPECT_EQ(want.makespan_bits, got.makespan_bits);
  EXPECT_EQ(want.client_clock_bits, got.client_clock_bits);
  EXPECT_EQ(want.total_ops, got.total_ops);
  EXPECT_EQ(want.total_bytes, got.total_bytes);
  EXPECT_EQ(want.total_bytes_streamed, got.total_bytes_streamed);
  EXPECT_EQ(want.total_candidates, got.total_candidates);
  EXPECT_EQ(want.dropped_total, got.dropped_total);
  EXPECT_EQ(want.fault_fingerprint, got.fault_fingerprint);
}

// Epoch-versioned mutable store (docs/mutability.md): the parity contract
// extends to batches executed against a live delta — inserts folded into
// the batch's epoch stores and deletes filtered at the rank barrier. Both
// engines acquire the identical StoreSnapshot, so under the alignment
// preconditions (pipeline off, one batch per chain) results stay bitwise
// identical with pruning on or off, serial or lane-scheduled, float or
// quantized streams.
HarmonyOptions MutableParityOptions(bool pruning, size_t tpn, bool pq) {
  HarmonyOptions opts;
  opts.mode = Mode::kHarmony;
  opts.num_machines = 4;
  opts.ivf.nlist = 8;
  opts.ivf.seed = 7;
  opts.enable_pipeline = false;
  opts.pipeline_batch = 1 << 20;
  opts.enable_pruning = pruning;
  opts.threads_per_node = tpn;
  if (pq) {
    opts.use_pq_streams = true;
    opts.pq_subspaces = 8;
    opts.rerank_depth = 0;  // full exact rerank: bitwise across engines
  }
  return opts;
}

TEST(ExecParityTest, DeltaPresentEngineSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  for (const bool pq : {false, true}) {
    for (const size_t tpn : {size_t{1}, size_t{4}}) {
      for (const bool pruning : {false, true}) {
        HarmonyEngine engine(MutableParityOptions(pruning, tpn, pq));
        ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
        // Pending delta: re-inserted mixture rows under fresh ids plus a
        // spread of tombstones, none merged.
        const DatasetView ins(world.mixture.vectors.Row(7), 6,
                              world.mixture.vectors.dim());
        ASSERT_TRUE(engine.InsertVectors(ins).ok());
        ASSERT_TRUE(engine.DeleteVectors({2, 31, 500, 1999}).ok());
        ASSERT_EQ(engine.pending_delta_rows(), 6u);

        auto sim =
            engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
        ASSERT_TRUE(sim.ok()) << sim.status();
        auto thr =
            engine.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
        ASSERT_TRUE(thr.ok()) << thr.status();
        SCOPED_TRACE(::testing::Message() << "pq=" << pq << " tpn=" << tpn
                                          << " pruning=" << pruning);
        ExpectBitIdenticalResults(sim.value().results, thr.value().results);
      }
    }
  }
}

// Parity across the generation swap: before the merge (delta + tombstones
// live), after it (rebuilt frozen blocks, generation bumped), and again
// with a second wave of updates on the new generation — including a delete
// of a first-wave insert that is now a frozen row.
TEST(ExecParityTest, MidMergeGenerationSweep) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  HarmonyEngine engine(
      MutableParityOptions(/*pruning=*/true, /*tpn=*/1, /*pq=*/false));
  ASSERT_TRUE(engine.BuildFromIndex(world.index).ok());
  const size_t base = engine.IdSpan();

  auto expect_parity = [&](const char* what) {
    auto sim = engine.SearchBatchPinned(world.workload.queries.View(), 10, 4);
    ASSERT_TRUE(sim.ok()) << sim.status() << " (" << what << ")";
    auto thr =
        engine.SearchBatchThreaded(world.workload.queries.View(), 10, 4);
    ASSERT_TRUE(thr.ok()) << thr.status() << " (" << what << ")";
    SCOPED_TRACE(what);
    ExpectBitIdenticalResults(sim.value().results, thr.value().results);
  };

  const DatasetView wave1(world.mixture.vectors.Row(50), 5,
                          world.mixture.vectors.dim());
  ASSERT_TRUE(engine.InsertVectors(wave1).ok());
  ASSERT_TRUE(engine.DeleteVectors({11, 640}).ok());
  expect_parity("generation 0, delta present");

  ASSERT_TRUE(engine.MergeUpdates().ok());
  ASSERT_EQ(engine.generation(), 1u);
  expect_parity("generation 1, frozen");

  const DatasetView wave2(world.mixture.vectors.Row(200), 3,
                          world.mixture.vectors.dim());
  ASSERT_TRUE(engine.InsertVectors(wave2).ok());
  // Delete a wave-1 insert (now merged into the frozen blocks) and a
  // wave-2 insert still sitting in the delta.
  ASSERT_TRUE(engine.DeleteVectors({static_cast<int64_t>(base),
                                    static_cast<int64_t>(engine.IdSpan()) - 1})
                  .ok());
  expect_parity("generation 1, second wave pending");

  ASSERT_TRUE(engine.MergeUpdates().ok());
  ASSERT_EQ(engine.generation(), 2u);
  expect_parity("generation 2, frozen");
}

TEST(ExecPinnedGoldens, SimulatedDefaultsHealthy) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;  // defaults: pipeline + pruning + dynamic order on
  opts.k = 10;
  opts.nprobe = 4;
  SimCluster cluster(4);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &cluster);
  ASSERT_TRUE(sim.ok()) << sim.status();
  const SimGolden want{ByKernelFamily(0x29866fbc0a7a2be7ull,
                                      0x29866fbc0a7a2c92ull),
                       0x3f439f6aaf177a92ull,
                       0x3f439f6aaf177a92ull, 629907ull, 243432ull,
                       1213056ull, 28445ull, 19326ull, 0ull};
  PrintAndCheckSim(want, sim.value(), cluster);

  // The threaded engine returns the same result set (unordered pin: its
  // merge order is timing-dependent, its content is not).
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(thr.ok()) << thr.status();
  EXPECT_EQ(want.results_checksum, ResultChecksum(thr.value().results));
}

/// Pins of one ungrouped, staggered, replicated run with seeded drops.
struct StaggerDropsGolden {
  uint64_t results_checksum;
  uint64_t bytes_streamed;
  uint64_t messages_dropped;
  uint64_t retries;
  uint64_t blocks_lost;
  uint64_t failovers;
  size_t degraded_queries;
};

// Ungrouped dispatch with the pipeline stagger on: every chain walks its
// own rotation of the four dimension blocks, over R = 2 replicas with
// seeded drops, so the static replica walk, its failovers and the rotated
// accumulation order all feed the pins. Pruning is off in the pinned run:
// a threaded stage reads τ at whatever point the other chains have merged,
// so with pruning on the survivor counts (hence bytes and the hop retries
// booked for chains that still had candidates) follow thread timing. The
// pruned run must land on the same result set — pruning is sound.
void CheckUngroupedStaggerReplicatedDrops(size_t dim,
                                          const StaggerDropsGolden& want) {
  const SmallWorld world = MakeSmallWorld(2500, dim, 8, 8, 25);
  const RunSetup setup = MakeSetup(world, 4, 1, 4, 4, /*group_size=*/1,
                                   /*with_norms=*/false, /*replication=*/2);
  ExecOptions opts;  // defaults: pipeline stagger + dynamic order on
  opts.k = 10;
  opts.nprobe = 4;
  opts.shared_scans = false;
  opts.replication_factor = 2;
  opts.enable_pruning = false;
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_prob = 0.5;
  plan.crashes.push_back({1, 0.0});  // dead from the start
  opts.faults = plan;
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), opts);
  ASSERT_TRUE(thr.ok()) << thr.status();
  const ThreadedOutput& out = thr.value();
  const uint64_t checksum = ResultChecksum(out.results);
  std::printf("golden capture: 0x%016" PRIx64 "ull %" PRIu64 " %s\n",
              checksum, out.bytes_streamed, out.faults.ToString().c_str());
  EXPECT_EQ(want.results_checksum, checksum);
  EXPECT_EQ(want.bytes_streamed, out.bytes_streamed);
  EXPECT_EQ(want.messages_dropped, out.faults.messages_dropped);
  EXPECT_EQ(want.retries, out.faults.retries);
  EXPECT_EQ(want.blocks_lost, out.faults.blocks_lost);
  EXPECT_EQ(0ull, out.faults.shards_lost);
  EXPECT_EQ(want.failovers, out.faults.failovers);
  EXPECT_EQ(0ull, out.faults.hedged);
  EXPECT_EQ(want.degraded_queries, out.faults.degraded_queries);

  opts.enable_pruning = true;
  auto pruned = ExecuteThreaded(world.index, setup.plan, setup.stores,
                                setup.prewarm, setup.routing,
                                world.workload.queries.View(), opts);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(want.results_checksum, ResultChecksum(pruned.value().results));
  EXPECT_EQ(out.degraded, pruned.value().degraded);
}

TEST(ExecPinnedGoldens, UngroupedStaggerReplicatedDrops) {
  // 64 dims over 4 blocks: 16-wide slices keep every scan on the SIMD
  // kernels of the resolved tier.
  CheckUngroupedStaggerReplicatedDrops(
      64, {ByKernelFamily(0x4fdb1aa98336b7e6ull, 0x4fdb1aa98336b8a3ull),
           8729600ull, 140ull, 59ull, 6ull, 21ull, 6u});
}

// The same run over 32 dims: 8-wide slices put every block scan on the
// portable bodies, which every tier runs below width 16 (scans at the full
// 32-dim width still split the families). Those bodies' bits
// must not depend on the compiler flags: scan_kernel.cc compiles with
// -ffp-contract=off, so a -march=native build reads this same checksum.
TEST(ExecPinnedGoldens, UngroupedStaggerReplicatedDropsNarrowBlocks) {
  CheckUngroupedStaggerReplicatedDrops(
      32, {ByKernelFamily(0x78e70e3b33d7b7c4ull, 0x78e70e3b33d7b7a7ull),
           3423360ull, 140ull, 59ull, 6ull, 21ull, 6u});
}

TEST(ExecPinnedGoldens, SimulatedDroppyLanes) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4);
  ExecOptions opts;
  opts.k = 10;
  opts.nprobe = 4;
  opts.threads_per_node = 4;  // lane-scheduled compute path
  FaultPlan plan;
  plan.seed = 2024;
  plan.drop_prob = 0.25;
  opts.faults = plan;
  SimCluster cluster(4);
  cluster.SetFaultPlan(plan);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &cluster);
  ASSERT_TRUE(sim.ok()) << sim.status();
  const SimGolden want{ByKernelFamily(0x6f5f5fcf3741051eull,
                                      0x6f5f5fcf37410644ull),
                       0x3f2af95c4a1d4d71ull,
                       0x3f2af95c4a1d4d71ull, 637337ull, 243360ull,
                       1337664ull, 28445ull, 18887ull, 121081140ull};
  PrintAndCheckSim(want, sim.value(), cluster);
}

// Quantized streams with the rerank depth capped: the ADC tables, the
// capped pick and the exact rerank all feed these digests, so a change to
// where the tables are built or how the pick is selected that moves one bit
// fails here. With pruning on (the defaults) the simulator's full golden is
// pinned. With pruning off both engines must return the pinned result set:
// the threaded engine's τ reads follow thread timing, and a capped pick
// depends on which candidates pruning removed, so only the unpruned run is
// a deterministic threaded pin. b_dim = 2, so the engines' block orders
// commute in the ADC sum.
void CheckPqGoldens(Metric metric, const SimGolden& want_pruned,
                    uint64_t want_unpruned_results) {
  const SmallWorld world = MakeSmallWorld(2500, 32, 8, 8, 25);
  const bool ip = metric != Metric::kL2;
  const RunSetup setup = MakeSetup(world, 4, 2, 2, 4, /*group_size=*/4,
                                   /*with_norms=*/ip, /*replication=*/1,
                                   /*with_pq=*/true);
  ExecOptions opts;
  opts.metric = metric;
  opts.k = 10;
  opts.nprobe = 4;
  opts.use_pq_streams = true;
  opts.pq = &setup.pq;
  opts.rerank_depth = 32;
  SimCluster cluster(4);
  auto sim = ExecuteSimulated(world.index, setup.plan, setup.stores,
                              setup.prewarm, setup.routing,
                              world.workload.queries.View(), opts, &cluster);
  ASSERT_TRUE(sim.ok()) << sim.status();
  PrintAndCheckSim(want_pruned, sim.value(), cluster);

  ExecOptions unpruned = opts;
  unpruned.enable_pruning = false;
  unpruned.dynamic_dim_order = false;
  unpruned.pipeline_batch = 64;  // several pipeline batches per chain
  SimCluster unpruned_cluster(4);
  auto sim_unpruned = ExecuteSimulated(
      world.index, setup.plan, setup.stores, setup.prewarm, setup.routing,
      world.workload.queries.View(), unpruned, &unpruned_cluster);
  ASSERT_TRUE(sim_unpruned.ok()) << sim_unpruned.status();
  auto thr = ExecuteThreaded(world.index, setup.plan, setup.stores,
                             setup.prewarm, setup.routing,
                             world.workload.queries.View(), unpruned);
  ASSERT_TRUE(thr.ok()) << thr.status();
  const uint64_t got = ResultChecksum(sim_unpruned.value().results);
  std::printf("unpruned capture: 0x%016" PRIx64 "ull\n", got);
  EXPECT_EQ(want_unpruned_results, got);
  EXPECT_EQ(want_unpruned_results, ResultChecksum(thr.value().results));
}

TEST(ExecPinnedGoldens, PqL2DepthCapped) {
  const uint64_t results = ByKernelFamily(0x47bff99d19745987ull,
                                          0x47bff99d197458a1ull);
  const SimGolden want{results, 0x3f646e2e345a7591ull, 0x3f646e2e345a7591ull,
                       1242061ull, 242792ull, 277824ull, 28445ull, 12132ull,
                       0ull};
  CheckPqGoldens(Metric::kL2, want, results);
}

TEST(ExecPinnedGoldens, PqIpDepthCapped) {
  const uint64_t results = ByKernelFamily(0xbcfec5f46456e9b6ull,
                                          0xbcfec5f46456ea36ull);
  const SimGolden want{results, 0x3f64693c4e4bd2d5ull, 0x3f64693c4e4bd2d5ull,
                       1243807ull, 356876ull, 276736ull, 28445ull, 12120ull,
                       0ull};
  CheckPqGoldens(Metric::kInnerProduct, want, results);
}

}  // namespace
}  // namespace harmony
