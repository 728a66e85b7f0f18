// Shared pieces of harmony_cli: the parsed flags and the world every mode
// builds from (flags.cc), and the mode entry points (search.cc, socket.cc).
#ifndef HARMONY_TOOLS_CLI_CLI_H_
#define HARMONY_TOOLS_CLI_CLI_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "workload/datasets.h"

namespace harmony::cli {

/// Every flag's value (the flag table in flags.cc says what each means).
/// Engine-option flags set the inherited HarmonyOptions members in place, so
/// each keeps one name and one default; BuildWorld translates the rest.
struct CliArgs : HarmonyOptions {
  CliArgs() { pq_subspaces = 0; }  // --pq-subspaces 0: PQ streams off

  bool help = false;
  std::string dataset;  // stand-in name, or empty when --base is given
  std::string base_path;
  std::string query_path;
  std::string save_index;
  std::string load_index;
  std::string mode_name = "harmony";
  std::string metric = "l2";
  std::string tier_name = "auto";
  size_t nlist = 0;  // 0 = dataset default
  size_t nprobe = 8;
  size_t k = 10;
  double scale = 1.0;
  double zipf = 0.0;
  bool threaded = false;
  bool explain = false;
  size_t fault_seed = 0;
  double drop_prob = 0.0;
  std::vector<std::string> crash_nodes;  // "N[@T]" each
  std::vector<std::string> slow_nodes;   // "N@F" each
  bool serve = false;
  double serve_qps = 0.0;     // 0 = 1x estimated capacity
  size_t serve_queries = 256;
  size_t serve_tenants = 4;
  double serve_slo_ms = 0.0;  // 0 = auto from the calibrated estimate
  double serve_burst = 1.0;
  size_t serve_seed = 42;
  bool serve_shed = false;
  double update_rate = 0.0;
  double delete_frac = 0.0;
  bool worker = false;
  std::string listen_addr;  // unix:/path or tcp:host:port
  size_t worker_id = 0;
  size_t num_workers = 0;
  std::string workers_csv;  // frontend mode: comma-separated addresses
  bool shutdown_workers = false;
  bool socket_smoke = false;
};

/// Fills `args` from argv. Fails on an unknown flag, a value flag with no
/// value, or --worker without --listen and --num-workers. Stops at --help.
Status ParseArgs(int argc, char** argv, CliArgs* args);

/// Prints every flag of the table with its help text.
void PrintUsage();

/// The data and engine options every mode starts from.
struct World {
  Dataset base;
  Dataset queries;
  GaussianMixture mixture;  // stand-in centers for --serve; none with --base
  HarmonyOptions options;
};

/// Loads the stand-in (printing its shape when `announce`) or the fvecs files
/// and fills HarmonyOptions from every flag. Deterministic per flag set.
Result<World> BuildWorld(const CliArgs& args, bool announce);

/// Simulated batch report, --threaded replay and --serve (search.cc).
Status RunSearch(const CliArgs& args);
/// --worker, --workers and --socket-smoke (socket.cc).
Status RunWorker(const CliArgs& args);
Status RunFrontend(const CliArgs& args);
Status RunSocketSmoke(const CliArgs& args);

}  // namespace harmony::cli

#endif  // HARMONY_TOOLS_CLI_CLI_H_
