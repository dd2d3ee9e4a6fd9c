// Ablation A1: the BCC merge threshold of Algorithm 1. Small thresholds
// keep many tiny sub-graphs (more alpha/beta bookkeeping, more boundary
// APs); large thresholds fold everything into fewer, bigger sub-graphs
// (less reuse). Sweeps the knob and reports decomposition shape + APGRE
// runtime on three structurally distinct analogues.
#include <cstdio>

#include "bc/bc.hpp"
#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  const auto workloads = selected_workloads();
  const std::vector<std::size_t> picks{0, 5, 10};  // email, dblp, road
  const std::vector<Vertex> thresholds{2, 8, 32, 128, 512};

  Table table({"Graph", "Threshold", "#SG", "Top #V", "Partial %", "Total %",
               "APGRE s"});
  for (std::size_t pick : picks) {
    if (pick >= workloads.size()) continue;
    const Workload& w = workloads[pick];
    const CsrGraph g = w.build();
    for (Vertex threshold : thresholds) {
      BcOptions opts;
      opts.apgre.partition.merge_threshold = threshold;
      const ApgreStats stats = betweenness(g, opts).apgre_stats;
      table.row()
          .cell(w.id)
          .cell(static_cast<std::uint64_t>(threshold))
          .cell(static_cast<std::uint64_t>(stats.num_subgraphs))
          .cell(static_cast<std::uint64_t>(stats.top_vertices))
          .cell(100.0 * stats.partial_redundancy, 1)
          .cell(100.0 * stats.total_redundancy, 1)
          .cell(stats.total_seconds, 3);
      std::fflush(stdout);
    }
  }
  print_table("Ablation A1: merge-threshold sweep", table);
  return 0;
}
