#include <gtest/gtest.h>

#include "bc/brandes.hpp"
#include "check/dynamic.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

void expect_matches_scratch(const DynamicBc& dynamic) {
  testing::expect_scores_near(brandes_bc(dynamic.graph()), dynamic.scores());
}

TEST(DynamicBc, InitialScoresAreExact) {
  const CsrGraph g = barbell(5, 2);
  const DynamicBc dynamic(g);
  expect_matches_scratch(dynamic);
}

TEST(DynamicBc, InsertingAShortcutUpdatesScores) {
  // Path 0-1-2-3-4 becomes C5 after adding 0-4: every vertex now carries
  // exactly one ordered pair in each direction (BC = 2), down from the
  // path profile 2 * i * (4 - i).
  DynamicBc dynamic(path(5));
  EXPECT_DOUBLE_EQ(dynamic.scores()[2], 8.0);
  const Vertex affected = dynamic.insert_edge(0, 4);
  EXPECT_GT(affected, 0u);
  expect_matches_scratch(dynamic);
  for (Vertex v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(dynamic.scores()[v], 2.0);
}

TEST(DynamicBc, RemovalRestoresPreviousScores) {
  const CsrGraph g = cycle(8);
  DynamicBc dynamic(g);
  const auto before = dynamic.scores();
  dynamic.insert_edge(0, 4);
  dynamic.remove_edge(0, 4);
  EXPECT_EQ(dynamic.graph(), g);
  testing::expect_scores_near(before, dynamic.scores());
}

TEST(DynamicBc, DirectedArcUpdates) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, true);
  DynamicBc dynamic(g);
  dynamic.insert_edge(0, 2);
  expect_matches_scratch(dynamic);
  EXPECT_TRUE(dynamic.graph().directed());
  dynamic.remove_edge(1, 2);
  expect_matches_scratch(dynamic);
}

TEST(DynamicBc, RejectsInvalidUpdates) {
  DynamicBc dynamic(path(4));
  EXPECT_THROW(dynamic.insert_edge(0, 1), Error);  // already present
  EXPECT_THROW(dynamic.remove_edge(0, 2), Error);  // absent
  EXPECT_THROW(dynamic.insert_edge(1, 1), Error);  // self-loop
}

TEST(DynamicBc, ConnectsTwoComponents) {
  const CsrGraph g = CsrGraph::undirected_from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  DynamicBc dynamic(g);
  dynamic.insert_edge(2, 3);
  expect_matches_scratch(dynamic);
  EXPECT_GT(dynamic.scores()[2], 0.0);  // now brokers the join
}

TEST(DynamicBc, DisconnectsViaBridgeRemoval) {
  DynamicBc dynamic(barbell(4, 0));
  dynamic.remove_edge(3, 4);  // the bridge
  expect_matches_scratch(dynamic);
  for (double score : dynamic.scores()) EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(DynamicBc, AffectedSetIsSmallForLocalEdits) {
  // Adding a pendant-ish edge deep inside one clique of a barbell must not
  // touch sources in the other clique.
  DynamicBc dynamic(barbell(20, 6));
  const Vertex n = dynamic.graph().num_vertices();
  // Arc between two bridge vertices that are not adjacent.
  const Vertex affected = dynamic.insert_edge(21, 23);
  expect_matches_scratch(dynamic);
  EXPECT_LT(affected, n);  // strictly fewer than all sources
}

class DynamicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicSweep, RandomEditSequencesStayExact) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    DynamicBc dynamic(gc.graph);
    Xoshiro256 rng(GetParam());
    const Vertex n = gc.graph.num_vertices();
    int edits = 0;
    for (int attempt = 0; attempt < 40 && edits < 8; ++attempt) {
      const auto u = static_cast<Vertex>(rng.bounded(n));
      const auto v = static_cast<Vertex>(rng.bounded(n));
      if (u == v) continue;
      const auto outs = dynamic.graph().out_neighbors(u);
      const bool present = std::binary_search(outs.begin(), outs.end(), v);
      try {
        if (present) {
          dynamic.remove_edge(u, v);
        } else {
          dynamic.insert_edge(u, v);
        }
        ++edits;
      } catch (const Error&) {
        continue;  // e.g. asymmetric remove on an undirected graph
      }
    }
    ASSERT_GT(edits, 0);
    expect_matches_scratch(dynamic);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSweep, ::testing::Values(301, 311, 321));

}  // namespace
}  // namespace apgre
