// The flag table of harmony_cli, which parsing and --help both read, and
// BuildWorld, which turns the parsed flags into data and engine options.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "cli.h"
#include "storage/io.h"

namespace harmony::cli {
namespace {

/// The CliArgs member a flag sets; its type is the value kind. A bool flag
/// takes no value and flips its default; a vector flag is repeatable.
using Target =
    std::variant<bool CliArgs::*, size_t CliArgs::*, double CliArgs::*,
                 std::string CliArgs::*, std::vector<std::string> CliArgs::*>;

struct Flag {
  const char* usage;  // the flag, then its value placeholder if it takes one
  Target target;
  const char* help;   // wrapped to kHelpWidth columns by PrintUsage
};

constexpr size_t kHelpWidth = 46;

constexpr Flag kFlags[] = {
    {"--dataset NAME", &CliArgs::dataset, "Table-2 stand-in (sift1m, msong, "
     "deep1m, ...)"},
    {"--base F", &CliArgs::base_path, "fvecs base vectors instead of a "
     "stand-in"},
    {"--queries F", &CliArgs::query_path, "fvecs queries (with --base)"},
    {"--mode M", &CliArgs::mode_name, "harmony | harmony-vector | "
     "harmony-dimension | single-node | auncel-like"},
    {"--nmachine N", &CliArgs::num_machines, "worker nodes (default 4)"},
    {"--nlist N", &CliArgs::nlist, "IVF lists (default: dataset heuristic)"},
    {"--nprobe N", &CliArgs::nprobe, "probed lists per query (default 8)"},
    {"--k N", &CliArgs::k, "neighbors per query (default 10)"},
    {"--metric M", &CliArgs::metric, "l2 | ip | cosine"},
    {"--alpha A", &CliArgs::alpha, "cost-model imbalance weight (default 4)"},
    {"--scale S", &CliArgs::scale, "stand-in scale factor (default 1)"},
    {"--zipf T", &CliArgs::zipf, "query skew exponent (default 0 = uniform)"},
    {"--no-pruning", &CliArgs::enable_pruning, "ablation toggle: no pruning"},
    {"--no-pipeline", &CliArgs::enable_pipeline, "ablation toggle: no "
     "pipeline"},
    {"--no-balance", &CliArgs::enable_balanced_load, "ablation toggle: no "
     "balanced load"},
    {"--save-index F", &CliArgs::save_index, "index persistence: save to F"},
    {"--load-index F", &CliArgs::load_index, "index persistence: load from F"},
    {"--threaded", &CliArgs::threaded, "also run the real-thread engine"},
    {"--threads-per-node N", &CliArgs::threads_per_node, "worker threads "
     "(threaded) / compute lanes (simulated) per node (default 1 = serial)"},
    {"--group-size N", &CliArgs::query_group_size, "chains per query group for "
     "shared scans (default 4; 1 = per-query scans)"},
    {"--no-shared-scans", &CliArgs::shared_scans, "disable query-group shared "
     "scans"},
    {"--explain", &CliArgs::explain, "print the planner's candidate costs"},
    {"--fault-seed S", &CliArgs::fault_seed, "seed for the deterministic fault "
     "plan"},
    {"--drop-prob P", &CliArgs::drop_prob, "per-attempt message-loss "
     "probability"},
    {"--crash-node N[@T]", &CliArgs::crash_nodes, "kill node N at virtual time "
     "T (default 0 = dead from the start); repeatable"},
    {"--max-retries R", &CliArgs::max_retries, "resends before a hop is "
     "declared lost (2)"},
    {"--slow-node N@F", &CliArgs::slow_nodes, "multiply node N's compute time "
     "by F (a straggler; lets --hedge-after fire); repeatable"},
    {"--replication-factor R", &CliArgs::replication_factor, "replicas per "
     "grid block (default 1); with R >= 2 hops fail over to surviving "
     "replicas"},
    {"--hedge-after X", &CliArgs::hedge_after, "hedge a stage to a second "
     "replica when its primary's straggler factor >= X (0 = off)"},
    {"--no-failover", &CliArgs::enable_failover, "disable failover routing "
     "(replicas still spread load; lost hops degrade as at R = 1)"},
    {"--pq-subspaces M", &CliArgs::pq_subspaces, "quantized block streams: PQ "
     "codes with M subspaces across the full dim (0 = off); scans run on "
     "codes, exact float rerank at the rank barrier (docs/quantization.md)"},
    {"--pq-bits B", &CliArgs::pq_bits, "PQ codeword bits, 1..8 (default 8)"},
    {"--kernel-tier T", &CliArgs::tier_name, "scan-kernel dispatch tier: auto "
     "| portable | avx2 | avx512 (auto picks the widest the CPU supports; "
     "results are identical across tiers)"},
    {"--rerank-depth N", &CliArgs::rerank_depth, "cap the exact rerank at the "
     "N best ADC candidates per chain (0 = rerank all)"},
    {"--serve", &CliArgs::serve, "run the continuous-serving frontend (SLO "
     "admission control; stand-in datasets only); with --threaded replays on "
     "real threads too"},
    {"--serve-qps Q", &CliArgs::serve_qps, "offered load (default: 1x est. "
     "capacity)"},
    {"--serve-queries N", &CliArgs::serve_queries, "arrivals in the trace "
     "(default 256)"},
    {"--serve-tenants N", &CliArgs::serve_tenants, "tenants (default 4)"},
    {"--serve-slo-ms X", &CliArgs::serve_slo_ms, "per-query SLO (default: "
     "auto-calibrated)"},
    {"--serve-burst F", &CliArgs::serve_burst, "burstiness factor (default 1; "
     "0 = Poisson)"},
    {"--serve-seed S", &CliArgs::serve_seed, "arrival-trace seed (default 42)"},
    {"--serve-shed", &CliArgs::serve_shed, "shed late queries instead of "
     "degrading them"},
    {"--update-rate R", &CliArgs::update_rate, "with --serve: mean update "
     "arrivals/second (inserts + deletes) sharing the SLO lanes; 0 = no update "
     "stream (docs/mutability.md)"},
    {"--delete-frac F", &CliArgs::delete_frac, "fraction of update arrivals "
     "that are deletes (default 0 = inserts only)"},
    {"--worker", &CliArgs::worker, "serve one worker process: build the "
     "stand-in engine deterministically and answer scan RPCs on --listen until "
     "a shutdown frame arrives"},
    {"--listen A", &CliArgs::listen_addr, "worker bind address: unix:/path or "
     "tcp:host:port"},
    {"--worker-id N", &CliArgs::worker_id, "this worker's id (0-based)"},
    {"--num-workers N", &CliArgs::num_workers, "total workers in the fleet"},
    {"--workers A,B,...", &CliArgs::workers_csv, "frontend mode: run the query "
     "batch over real sockets against these workers and check the results "
     "bitwise against the in-process engine"},
    {"--shutdown-workers", &CliArgs::shutdown_workers, "frontend sends "
     "shutdown frames when done"},
    {"--socket-smoke", &CliArgs::socket_smoke, "self-contained multi-process "
     "smoke: fork two workers, run with R=2, kill one mid-run (zero degraded), "
     "restart it with update-log replay, rejoin, and verify bitwise parity "
     "throughout"},
    {"--help", &CliArgs::help, "print this flag list and exit (also -h)"},
};

std::string_view FlagName(const Flag& f) {
  const std::string_view usage = f.usage;
  return usage.substr(0, usage.find(' '));
}

/// Reads "N" or "N@X" (X = `fallback` when absent).
std::pair<long, double> NodeAt(const std::string& spec, double fallback) {
  char* end = nullptr;
  const long node = std::strtol(spec.c_str(), &end, 10);
  return {node, *end == '@' ? std::strtod(end + 1, nullptr) : fallback};
}

Result<Mode> ParseMode(const std::string& name) {
  for (const Mode m : {Mode::kHarmony, Mode::kHarmonyVector,
                       Mode::kHarmonyDimension, Mode::kSingleNode,
                       Mode::kAuncelLike}) {
    if (name == ModeToString(m)) return m;
  }
  return Status::InvalidArgument("unknown mode " + name);
}

Result<Metric> ParseMetric(const std::string& name) {
  for (const Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    if (name == MetricToString(m)) return m;
  }
  return Status::InvalidArgument("unknown metric " + name);
}

}  // namespace

Status ParseArgs(int argc, char** argv, CliArgs* args) {
  static const CliArgs kDefaults;
  for (int i = 1; i < argc; ++i) {
    std::string_view name = argv[i];
    if (name == "-h") name = "--help";
    const auto flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return FlagName(f) == name; });
    if (flag == std::end(kFlags)) {
      return Status::InvalidArgument("unknown flag: " + std::string(name));
    }
    const char* v = "";
    if (!std::holds_alternative<bool CliArgs::*>(flag->target)) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " +
                                       std::string(name));
      }
      v = argv[++i];
    }
    // Numbers parse with strtoul/strtod: garbage reads as 0.
    std::visit(
        [&](auto member) {
          auto& field = args->*member;
          using T = std::remove_reference_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            field = !(kDefaults.*member);
          } else if constexpr (std::is_same_v<T, size_t>) {
            field = std::strtoull(v, nullptr, 10);
          } else if constexpr (std::is_same_v<T, double>) {
            field = std::strtod(v, nullptr);
          } else if constexpr (std::is_same_v<T, std::string>) {
            field = v;
          } else {
            field.emplace_back(v);
          }
        },
        flag->target);
  }
  if (args->worker && (args->listen_addr.empty() || args->num_workers == 0)) {
    return Status::InvalidArgument(
        "--worker requires --listen and --num-workers");
  }
  return Status::OK();
}

void PrintUsage() {
  std::puts("harmony_cli — distributed ANNS over a simulated cluster");
  for (const Flag& f : kFlags) {
    const char* left = f.usage;
    for (std::string_view help = f.help; !help.empty(); left = "") {
      size_t cut = help.rfind(' ', kHelpWidth);
      if (help.size() <= kHelpWidth || cut == help.npos) cut = help.size();
      std::printf("  %-20s  %.*s\n", left, static_cast<int>(cut), help.data());
      help.remove_prefix(std::min(cut + 1, help.size()));
    }
  }
}

Result<World> BuildWorld(const CliArgs& args, bool announce) {
  World world;
  HarmonyOptions& options = world.options;
  options = static_cast<const HarmonyOptions&>(args);
  if (!args.base_path.empty()) {
    HARMONY_ASSIGN_OR_RETURN(world.base, ReadFvecs(args.base_path));
    if (args.query_path.empty()) {
      return Status::InvalidArgument("--queries required with --base");
    }
    HARMONY_ASSIGN_OR_RETURN(world.queries, ReadFvecs(args.query_path));
  } else {
    const std::string name = args.dataset.empty() ? "sift1m" : args.dataset;
    HARMONY_ASSIGN_OR_RETURN(const StandInSpec spec, GetStandIn(name));
    HARMONY_ASSIGN_OR_RETURN(BenchData data,
                             MakeStandIn(spec, args.scale, args.zipf));
    world.mixture.component_centers = std::move(data.mixture.component_centers);
    world.mixture.dim_scale = std::move(data.mixture.dim_scale);
    world.base = std::move(data.mixture.vectors);
    world.queries = std::move(data.workload.queries);
    options.ivf.nlist = spec.nlist_hint;
    if (announce) {
      std::printf("dataset %s (stand-in): %zu x %zu base, %zu queries, "
                  "zipf=%.2f\n",
                  name.c_str(), world.base.size(), world.base.dim(),
                  world.queries.size(), args.zipf);
    }
  }
  if (args.nlist > 0) options.ivf.nlist = args.nlist;
  HARMONY_ASSIGN_OR_RETURN(options.mode, ParseMode(args.mode_name));
  HARMONY_ASSIGN_OR_RETURN(options.ivf.metric, ParseMetric(args.metric));
  if (options.ivf.metric == Metric::kCosine) NormalizeRows(&world.base);
  options.faults.seed = args.fault_seed;
  options.faults.drop_prob = args.drop_prob;
  for (const std::string& spec : args.crash_nodes) {
    const auto [node, at] = NodeAt(spec, 0.0);
    options.faults.crashes.push_back({static_cast<int>(node), at});
  }
  if (!args.slow_nodes.empty()) {
    options.faults.delay_multiplier.assign(args.num_machines, 1.0);
    for (const std::string& spec : args.slow_nodes) {
      const auto [node, factor] = NodeAt(spec, 1.0);
      if (node >= 0 && static_cast<size_t>(node) < args.num_machines) {
        options.faults.delay_multiplier[node] = factor;
      }
    }
  }
  options.use_pq_streams = args.pq_subspaces > 0;
  if (!ParseKernelTier(args.tier_name, &options.kernel_tier)) {
    return Status::InvalidArgument("unknown kernel tier: " + args.tier_name);
  }
  if (options.kernel_tier != KernelTier::kAuto &&
      !KernelTierAvailable(options.kernel_tier)) {
    return Status::InvalidArgument(
        std::string("kernel tier ") + KernelTierName(options.kernel_tier) +
        " is not available on this CPU");
  }
  return world;
}

}  // namespace harmony::cli
