// Quickstart: build a graph, compute betweenness centrality with APGRE,
// inspect the redundancy the decomposition removed, and cross-check the
// scores against the serial Brandes baseline.
//
//   ./quickstart [path/to/edge_list.txt]
//
// With a file argument the graph is parsed as a SNAP edge list (undirected)
// instead of the built-in demo graph.
#include <algorithm>
#include <cstdio>

#include "bc/bc.hpp"
#include "graph/generators.hpp"
#include "graph/io_snap.hpp"
#include "graph/transform.hpp"

int main(int argc, char** argv) {
  using namespace apgre;

  // 1. Get a graph: a social-network-like demo unless a file is given.
  CsrGraph graph;
  if (argc > 1) {
    graph = read_snap_file(argv[1], /*directed=*/false).graph;
    std::printf("loaded %s: %u vertices, %llu arcs\n", argv[1],
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_arcs()));
  } else {
    // Power-law core + pendant fringe: the structure APGRE exploits.
    graph = attach_pendants(barabasi_albert(2000, 3, /*seed=*/7), 800, 8);
    std::printf("demo graph: %u vertices, %llu arcs\n", graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_arcs()));
  }

  // 2. Betweenness with the default algorithm (APGRE).
  const BcResult apgre = betweenness(graph);
  std::printf("\nAPGRE: %.3f s (%.1f MTEPS)\n", apgre.seconds, apgre.mteps);
  std::printf("  decomposition: %zu sub-graphs, %u articulation points, "
              "%u pendants derived\n",
              apgre.apgre_stats.num_subgraphs,
              apgre.apgre_stats.num_articulation_points,
              apgre.apgre_stats.num_pendants_removed);
  std::printf("  redundancy removed: %.1f%% partial + %.1f%% total\n",
              100.0 * apgre.apgre_stats.partial_redundancy,
              100.0 * apgre.apgre_stats.total_redundancy);

  // 3. Cross-check against serial Brandes (the O(VE) baseline).
  BcOptions serial_opts;
  serial_opts.algorithm = Algorithm::kBrandesSerial;
  const BcResult serial = betweenness(graph, serial_opts);
  double max_diff = 0.0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    max_diff = std::max(max_diff,
                        std::abs(apgre.scores[v] - serial.scores[v]) /
                            std::max(1.0, serial.scores[v]));
  }
  std::printf("\nserial Brandes: %.3f s  ->  APGRE speedup %.2fx, max relative "
              "score deviation %.2e\n",
              serial.seconds, serial.seconds / apgre.seconds, max_diff);

  // 4. Top-5 vertices by centrality.
  std::vector<Vertex> order(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](Vertex a, Vertex b) {
                      return apgre.scores[a] > apgre.scores[b];
                    });
  std::printf("\ntop-5 central vertices:\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  #%d vertex %u  BC = %.1f\n", i + 1, order[i],
                apgre.scores[order[i]]);
  }

  // 5. Solving the same graph repeatedly? Use the session API: a Solver
  // caches the decomposition, so only the scoring phase repeats.
  Solver solver(graph);
  solver.solve();  // decomposes once
  BcOptions tuned;
  tuned.threads = 2;  // a scoring-only change keeps the cache
  const BcResult resolved = solver.solve(tuned);
  std::printf("\nre-solve via Solver: %.3f s scoring "
              "(decomposition cached: %.3f s partitioning)\n",
              resolved.seconds, resolved.apgre_stats.partition_seconds);
  return 0;
}
