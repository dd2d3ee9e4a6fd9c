// Paper Figure 8: where APGRE's own time goes — graph partition, alpha/beta
// counting (the "extra computations", 1.6%-25.7% in the paper) and the BC
// computation. The paper splits BC into the top sub-graph(s) and the rest;
// here every sub-graph, the top one split into root batches, runs in one
// scheduler pass, so BC is one column.
#include <cstdio>

#include "bc/bc.hpp"
#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  Table table({"Graph", "Total s", "Partition %", "Alpha/Beta %", "BC %", "#SG",
               "Top #V"});
  for (const Workload& w : selected_workloads()) {
    const CsrGraph g = w.build();
    const ApgreStats stats = betweenness(g).apgre_stats;
    const double total = stats.total_seconds > 0.0 ? stats.total_seconds : 1e-12;
    table.row()
        .cell(w.id)
        .cell(stats.total_seconds, 3)
        .cell(100.0 * stats.partition_seconds / total, 1)
        .cell(100.0 * stats.reach_seconds / total, 1)
        .cell(100.0 * stats.rest_bc_seconds / total, 1)
        .cell(static_cast<std::uint64_t>(stats.num_subgraphs))
        .cell(static_cast<std::uint64_t>(stats.top_vertices));
    std::fflush(stdout);
  }
  print_table("Figure 8: APGRE execution-time breakdown", table);
  return 0;
}
