// Ablation A6: vertex-ordering / graph re-layout (Cong & Makarychev,
// IPDPS 2011, paper §6). BC kernels are memory-bound; BFS/DFS relabelling
// clusters each vertex's neighbourhood, random order destroys locality.
// Measures serial Brandes and APGRE under each layout.
#include <cstdio>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "bench_util.hpp"
#include "graph/ordering.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  const auto workloads = selected_workloads();
  const std::vector<std::size_t> picks{0, 6};  // enron-like, youtube-like

  struct Named {
    const char* name;
    VertexOrder order;
  };
  const Named orders[] = {{"natural", VertexOrder::kNatural},
                          {"degree", VertexOrder::kDegreeDescending},
                          {"bfs", VertexOrder::kBfs},
                          {"dfs", VertexOrder::kDfs},
                          {"random", VertexOrder::kRandom}};

  Table table({"Graph", "Order", "Serial s", "APGRE s"});
  for (std::size_t pick : picks) {
    if (pick >= workloads.size()) continue;
    const Workload& w = workloads[pick];
    const CsrGraph base = w.build();
    for (const Named& o : orders) {
      const OrderedGraph ordered = apply_order(base, o.order, 7);
      Timer serial_timer;
      const auto serial = brandes_bc(ordered.graph);
      const double serial_s = serial_timer.seconds();
      Timer apgre_timer;
      const auto fast = betweenness(ordered.graph).scores;
      const double apgre_s = apgre_timer.seconds();
      (void)serial;
      (void)fast;
      table.row().cell(w.id).cell(o.name).cell(serial_s, 3).cell(apgre_s, 3);
      std::fflush(stdout);
    }
  }
  print_table("Ablation A6: vertex-ordering effect on BC kernels", table);
  return 0;
}
