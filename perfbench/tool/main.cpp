// perfbench_tool: the compiled half of the oracle benchmark (run.py drives
// it and the daemon).
//
//   perfbench_tool gen    --workload W --out graph.gr
//   perfbench_tool rounds --gr graph.gr
//   perfbench_tool load   --workload W --gr graph.gr --seed N --seconds S
//                         --socket path --daemon-pid PID
//   perfbench_tool replay --workload W --gr graph.gr --seed N --seconds S
//                         --image snap.img --spans spans.jsonl
//
// Each prints one JSON object on stdout; errors go to stderr with exit 1.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph_io.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "util/flags.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Writes the workload graph and names a probe pair with its exact distance,
/// which run.py checks the first answer of every daemon start against.
int cmd_gen(const lowtw::util::Flags& flags) {
  const WorkloadSpec& spec = find_workload(flags.get_string("workload", ""));
  const lowtw::graph::WeightedDigraph g = make_graph(spec);
  write_dimacs_gr(flags.get_string("out", ""), g);
  const lowtw::graph::SpResult sp = lowtw::graph::dijkstra(g, 0);
  VertexId probe = g.num_vertices() - 1;
  while (probe > 0 && sp.dist[static_cast<std::size_t>(probe)] >=
                          lowtw::graph::kInfinity) {
    --probe;
  }
  Json out;
  out.num("n", g.num_vertices())
      .num("m", g.num_arcs())
      .num("probe_u", 0)
      .num("probe_v", probe)
      .num("probe_dist",
           static_cast<double>(sp.dist[static_cast<std::size_t>(probe)]));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_load(const lowtw::util::Flags& flags) {
  const WorkloadSpec& spec = find_workload(flags.get_string("workload", ""));
  const lowtw::graph::WeightedDigraph g =
      lowtw::graph::io::read_dimacs_gr_file(flags.get_string("gr", ""));
  LoadOptions opt;
  opt.socket_path = flags.get_string("socket", "");
  opt.spec = &spec;
  opt.graph = &g;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.daemon_pid = static_cast<int>(flags.get_int("daemon-pid", 0));
  opt.seconds = flags.get_double("seconds", 10);
  std::printf("%s\n", run_load(opt).c_str());
  return 0;
}

int cmd_replay(const lowtw::util::Flags& flags) {
  ReplayOptions opt;
  opt.spec = &find_workload(flags.get_string("workload", ""));
  opt.graph_path = flags.get_string("gr", "");
  opt.image_path = flags.get_string("image", "");
  opt.spans_path = flags.get_string("spans", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10);
  std::printf("%s\n", run_replay(opt).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|rounds|load|replay ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const lowtw::util::Flags flags(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "rounds") {
      std::printf("%s\n", rounds_json(flags.get_string("gr", "")).c_str());
      return 0;
    }
    if (cmd == "load") return cmd_load(flags);
    if (cmd == "replay") return cmd_replay(flags);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
