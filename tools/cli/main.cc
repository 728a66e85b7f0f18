// harmony_cli: the Harmony engine's command line, exposing the paper's
// Section 5 parameters (-NMachine, -Pruning_Configuration,
// -Indexing_Parameters, -alpha, -Mode) plus dataset selection, e.g.
//   harmony_cli --dataset sift1m --mode harmony --nmachine 4 --nprobe 8
//   harmony_cli --base vecs.fvecs --queries q.fvecs --nlist 128 --k 10
// `harmony_cli --help` lists every flag.

#include <cstdio>

#include "cli.h"

int main(int argc, char** argv) {
  using namespace harmony::cli;
  CliArgs args;
  harmony::Status st = ParseArgs(argc, argv, &args);
  if (!st.ok() || args.help) {
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    PrintUsage();
    return st.ok() ? 0 : 2;
  }
  st = args.worker                ? RunWorker(args)
       : args.socket_smoke        ? RunSocketSmoke(args)
       : !args.workers_csv.empty() ? RunFrontend(args)
                                   : RunSearch(args);
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok() ? 0 : 1;
}
