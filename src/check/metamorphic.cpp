#include "check/metamorphic.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "bc/brandes.hpp"
#include "bcc/bridges.hpp"
#include "check/oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "support/prng.hpp"

namespace apgre {

namespace {

/// Rules are stated in the ordered-pair convention; halving would scale the
/// measured side but not the predicted deltas.
std::vector<double> run_algorithm(const CsrGraph& g, const BcOptions& opts) {
  BcOptions run = opts;
  run.undirected_halving = false;
  return betweenness(g, run).scores;
}

MetamorphicResult verdict(const std::string& rule,
                          const std::vector<double>& predicted,
                          const std::vector<double>& actual, double rel,
                          double abs) {
  MetamorphicResult result{.rule = rule, .detail = {}};
  const ScoreComparison cmp = compare_scores(predicted, actual, rel, abs);
  result.ok = cmp.ok;
  if (!cmp.ok) {
    std::ostringstream os;
    os << cmp.num_violations << " vertices over tolerance; worst v"
       << cmp.worst_vertex << " predicted " << cmp.expected_score << " actual "
       << cmp.actual_score << "; |predicted|=" << cmp.expected_norm
       << " |actual|=" << cmp.actual_norm;
    result.detail = os.str();
  }
  return result;
}

MetamorphicResult not_applied(const std::string& rule, const std::string& why) {
  MetamorphicResult result{.rule = rule, .detail = {}};
  result.applied = false;
  result.detail = why;
  return result;
}

}  // namespace

MetamorphicResult check_relabel_invariance(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed, double rel,
                                           double abs) {
  const Vertex n = g.num_vertices();
  if (n == 0) return not_applied("relabel", "empty graph");

  std::vector<Vertex> permutation(n);
  std::iota(permutation.begin(), permutation.end(), 0);
  Xoshiro256 rng(hash_combine64(seed, 0x51ab));
  for (Vertex i = n; i-- > 1;) {
    std::swap(permutation[i], permutation[rng.bounded(i + 1)]);
  }

  const std::vector<double> base = run_algorithm(g, opts);
  const std::vector<double> relabeled = run_algorithm(relabel(g, permutation), opts);
  std::vector<double> predicted(n);
  for (Vertex v = 0; v < n; ++v) predicted[permutation[v]] = base[v];
  return verdict("relabel", predicted, relabeled, rel, abs);
}

MetamorphicResult check_pendant_attachment(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed, double rel,
                                           double abs) {
  const Vertex n = g.num_vertices();
  if (n == 0) return not_applied("pendant", "empty graph");

  Xoshiro256 rng(hash_combine64(seed, 0x9e4d));
  const Vertex host = static_cast<Vertex>(rng.bounded(n));
  const Vertex pendant = n;

  EdgeList arcs = g.arcs();
  arcs.push_back(Edge{pendant, host});
  if (!g.directed()) arcs.push_back(Edge{host, pendant});
  const CsrGraph decorated =
      CsrGraph::from_edges(n + 1, std::move(arcs), g.directed());

  // gamma-derivation delta: the pendant's DAG is the host's DAG plus the
  // host itself, so each score grows by the host's single-source dependency
  // (twice for undirected graphs: source- and target-side ordered pairs).
  const double sides = g.directed() ? 1.0 : 2.0;
  const std::vector<double> host_dependency =
      brandes_bc_from_sources(g, {host}, 1.0);
  const auto host_reach = static_cast<double>(reachable_count(g, host));

  std::vector<double> predicted = run_algorithm(g, opts);
  for (Vertex v = 0; v < n; ++v) predicted[v] += sides * host_dependency[v];
  predicted[host] += sides * host_reach;
  predicted.push_back(0.0);  // a degree-1 vertex is never interior

  return verdict("pendant", predicted, run_algorithm(decorated, opts), rel, abs);
}

MetamorphicResult check_disjoint_union(const CsrGraph& g1, const CsrGraph& g2,
                                       const BcOptions& opts, double rel,
                                       double abs) {
  if (g1.directed() != g2.directed()) {
    return not_applied("union", "mixed directedness");
  }
  const Vertex offset = g1.num_vertices();
  EdgeList arcs = g1.arcs();
  for (Edge e : g2.arcs()) arcs.push_back(Edge{e.src + offset, e.dst + offset});
  const CsrGraph united = CsrGraph::from_edges(
      offset + g2.num_vertices(), std::move(arcs), g1.directed());

  std::vector<double> predicted = run_algorithm(g1, opts);
  const std::vector<double> second = run_algorithm(g2, opts);
  predicted.insert(predicted.end(), second.begin(), second.end());
  return verdict("union", predicted, run_algorithm(united, opts), rel, abs);
}

MetamorphicResult check_bridge_subdivision(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed, double rel,
                                           double abs) {
  if (g.directed()) return not_applied("subdivision", "directed graph");
  const BridgeDecomposition bridges = bridge_decomposition(g);
  if (bridges.bridges.empty()) return not_applied("subdivision", "no bridges");

  Xoshiro256 rng(hash_combine64(seed, 0xb21d));
  const Edge bridge = bridges.bridges[rng.bounded(bridges.bridges.size())];
  const Vertex n = g.num_vertices();
  const Vertex x = n;

  EdgeList arcs;
  for (Edge e : g.arcs()) {
    const bool is_bridge = (e.src == bridge.src && e.dst == bridge.dst) ||
                           (e.src == bridge.dst && e.dst == bridge.src);
    if (!is_bridge) arcs.push_back(e);
  }
  EdgeList cut = arcs;  // the graph with the bridge removed, for side sizes
  arcs.push_back(Edge{bridge.src, x});
  arcs.push_back(Edge{x, bridge.src});
  arcs.push_back(Edge{x, bridge.dst});
  arcs.push_back(Edge{bridge.dst, x});
  const CsrGraph subdivided = CsrGraph::from_edges(n + 1, std::move(arcs), false);

  // Side sizes of the bridge: the ordered pairs crossing it all pass
  // through the subdivision vertex.
  const CsrGraph without_bridge = CsrGraph::from_edges(n, std::move(cut), false);
  const ComponentLabels labels = connected_components(without_bridge);
  double side_src = 0.0;
  double side_dst = 0.0;
  for (Vertex v = 0; v < n; ++v) {
    if (labels.component[v] == labels.component[bridge.src]) side_src += 1.0;
    if (labels.component[v] == labels.component[bridge.dst]) side_dst += 1.0;
  }

  // Existing pairs keep their shortest-path structure (every crossing path
  // still crosses the bridge exactly once); the new vertex only adds its
  // own source/target pairs, worth twice its dependency.
  const std::vector<double> x_dependency =
      brandes_bc_from_sources(subdivided, {x}, 1.0);
  std::vector<double> predicted = run_algorithm(g, opts);
  for (Vertex v = 0; v < n; ++v) predicted[v] += 2.0 * x_dependency[v];
  predicted.push_back(2.0 * side_src * side_dst);

  return verdict("subdivision", predicted, run_algorithm(subdivided, opts), rel,
                 abs);
}

MetamorphicResult check_isolated_vertex(const CsrGraph& g, const BcOptions& opts,
                                        double rel, double abs) {
  const CsrGraph padded =
      CsrGraph::from_edges(g.num_vertices() + 1, g.arcs(), g.directed());
  std::vector<double> predicted = run_algorithm(g, opts);
  predicted.push_back(0.0);
  return verdict("isolated", predicted, run_algorithm(padded, opts), rel, abs);
}

MetamorphicResult check_peel_attachment(const CsrGraph& g, const BcOptions& opts,
                                        std::uint64_t seed, double rel,
                                        double abs) {
  if (g.directed()) return not_applied("peel_attach", "directed graph");
  if (g.num_vertices() == 0) return not_applied("peel_attach", "empty graph");

  // Decorate with the tree-fringe shapes the peel exists for: tendril
  // chains plus single pendants, hosts seeded per rule invocation.
  const CsrGraph decorated = attach_pendants(
      attach_chains(g, /*count=*/2, /*length=*/3, hash_combine64(seed, 0x2c07)),
      /*count=*/3, hash_combine64(seed, 0x9ee1));

  const PeelResult peel = two_core_peel(decorated);
  std::vector<double> predicted =
      run_algorithm(peeled_reduction(decorated, peel), opts);
  expand_peeled_scores(peel, predicted);
  return verdict("peel_attach", predicted, run_algorithm(decorated, opts), rel,
                 abs);
}

std::vector<MetamorphicResult> run_metamorphic_rules(const CsrGraph& g,
                                                     const BcOptions& opts,
                                                     std::uint64_t seed,
                                                     double rel, double abs) {
  std::vector<MetamorphicResult> results;
  results.push_back(check_relabel_invariance(g, opts, seed, rel, abs));
  results.push_back(check_pendant_attachment(g, opts, seed, rel, abs));
  results.push_back(check_isolated_vertex(g, opts, rel, abs));
  results.push_back(check_bridge_subdivision(g, opts, seed, rel, abs));
  const CsrGraph companion =
      erdos_renyi(20, 40, g.directed(), hash_combine64(seed, 0xc0de));
  results.push_back(check_disjoint_union(g, companion, opts, rel, abs));
  results.push_back(check_peel_attachment(g, opts, seed, rel, abs));
  return results;
}

}  // namespace apgre
