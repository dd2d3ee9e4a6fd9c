#include <gtest/gtest.h>

#include <algorithm>

#include "bcc/validate.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

TEST(ValidateDecomposition, AcceptsFreshDecompositions) {
  for (const auto& gc : testing::graph_family(95, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    const Decomposition dec = decompose(gc.graph);
    EXPECT_TRUE(validate_decomposition(gc.graph, dec).empty());
    EXPECT_NO_THROW(require_valid_decomposition(gc.graph, dec));
  }
}

TEST(ValidateDecomposition, DetectsCorruptedAlpha) {
  const CsrGraph g = barbell(5, 2);
  Decomposition dec = decompose(g);
  ASSERT_FALSE(dec.subgraphs.empty());
  bool corrupted = false;
  for (Subgraph& sg : dec.subgraphs) {
    if (!sg.boundary_aps.empty()) {
      sg.alpha[sg.boundary_aps[0]] += 7;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const auto violations = validate_decomposition(g, dec);
  EXPECT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("alpha"), std::string::npos);
  EXPECT_THROW(require_valid_decomposition(g, dec), Error);
}

TEST(ValidateDecomposition, DetectsDroppedArc) {
  const CsrGraph g = cycle(8);
  Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  // Rebuild the sub-graph with one arc missing.
  Subgraph& sg = dec.subgraphs[0];
  EdgeList arcs = sg.graph.arcs();
  arcs.pop_back();
  sg.graph = CsrGraph::from_edges(sg.num_vertices(), std::move(arcs), false);
  const auto violations = validate_decomposition(g, dec);
  EXPECT_FALSE(violations.empty());
}

TEST(ValidateDecomposition, DetectsBrokenGammaAccounting) {
  // Seven bridge sub-graphs, each deriving one leaf from the centre.
  const CsrGraph g = star(8);
  Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 7u);
  Subgraph& sg = dec.subgraphs[0];
  ASSERT_EQ(sg.roots.size(), 1u);
  sg.gamma[sg.roots[0]] += 1;
  const auto violations = validate_decomposition(g, dec);
  EXPECT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("gamma"), std::string::npos);
}

TEST(ValidateDecomposition, DetectsForeignArc) {
  // A 4-cycle {0, 1, 2, 3} and a path 4-5-6: the cycle's sub-graph lacks
  // the chord 0-2.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}});
  Decomposition dec = decompose(g);
  const auto cycle_sg =
      std::find_if(dec.subgraphs.begin(), dec.subgraphs.end(),
                   [](const Subgraph& sg) { return sg.num_vertices() == 4; });
  ASSERT_NE(cycle_sg, dec.subgraphs.end());
  // Splice the chord, absent from g, into the cycle's sub-graph (local ids
  // follow global order there).
  Subgraph& sg = *cycle_sg;
  EdgeList arcs = sg.graph.arcs();
  arcs.push_back(Edge{0, 2});
  arcs.push_back(Edge{2, 0});
  sg.graph = CsrGraph::from_edges(sg.num_vertices(), std::move(arcs), false);
  EXPECT_FALSE(validate_decomposition(g, dec).empty());
}

}  // namespace
}  // namespace apgre
