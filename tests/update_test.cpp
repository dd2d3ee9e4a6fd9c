// apply_edge_ops (graph/update.hpp), the one-pass successor build every
// edge-update path runs, diffed against the obvious oracle: the successor
// rebuilt from its arc list by CsrGraph::from_edges. A seeded sweep over
// random directed and undirected graphs covers the merge's edge cases (ops
// at vertex 0 and n - 1, several ops at one vertex, a vertex losing its
// last arc, an insert at an isolated vertex) and counts that it hit each;
// the illegal-op tests pin the messages and that a rejected batch leaves
// its input untouched. The merge writes through computed indices, so CI
// runs this binary under ASan + UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/update.hpp"
#include "support/prng.hpp"

namespace apgre {
namespace {

EdgeOp op(Vertex u, Vertex v, bool insert) { return EdgeOp{u, v, insert}; }

/// The oracle: apply the ops to the arc set and rebuild from scratch.
CsrGraph rebuilt(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  const EdgeList old_arcs = g.arcs();
  std::set<std::pair<Vertex, Vertex>> arcs;
  for (const Edge& e : old_arcs) arcs.emplace(e.src, e.dst);
  for (const EdgeOp& o : ops) {
    for (const auto& arc : {std::make_pair(o.u, o.v), std::make_pair(o.v, o.u)}) {
      if (o.insert) {
        arcs.insert(arc);
      } else {
        arcs.erase(arc);
      }
      if (g.directed()) break;
    }
  }
  EdgeList edges;
  for (const auto& [src, dst] : arcs) edges.push_back(Edge{src, dst});
  return CsrGraph::from_edges(g.num_vertices(), std::move(edges), g.directed());
}

/// The message `call` throws, or "" if it returns.
std::string thrown(const std::function<CsrGraph()>& call) {
  try {
    (void)call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// The message apply_edge_ops throws for `ops` on `g`, or "" if it
/// returns; also checks that `g` is unchanged afterwards.
std::string rejection(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  const CsrGraph before = g;
  std::string message = thrown([&] { return apply_edge_ops(g, ops); });
  EXPECT_EQ(g, before) << "apply_edge_ops changed its input";
  return message;
}

/// Edge-case hits of the random sweep; each must be non-zero at the end.
struct Coverage {
  int first_vertex = 0;   ///< an op at vertex 0
  int last_vertex = 0;    ///< an op at vertex n - 1
  int shared_vertex = 0;  ///< two or more ops at one vertex in one batch
  int last_arc = 0;       ///< a delete that leaves a vertex with no out-arc
  int isolated = 0;       ///< an insert at a vertex with no arcs
};

/// A random legal batch on `g`: endpoints biased to 0, n - 1 and one hub
/// vertex, at most one op per edge, each inserting an absent arc or
/// deleting a present one.
std::vector<EdgeOp> random_batch(const CsrGraph& g, Xoshiro256& rng,
                                 Coverage& hits) {
  const Vertex n = g.num_vertices();
  const Vertex hub = static_cast<Vertex>(rng() % n);
  const auto pick = [&]() -> Vertex {
    switch (rng() % 4) {
      case 0: return 0;
      case 1: return n - 1;
      case 2: return hub;
      default: return static_cast<Vertex>(rng() % n);
    }
  };
  const auto isolated = [&g](Vertex w) {
    return g.out_degree(w) == 0 && g.in_degree(w) == 0;
  };
  std::set<std::pair<Vertex, Vertex>> touched;
  std::vector<int> ops_at(n, 0);
  std::vector<EdgeOp> ops;
  const std::size_t want = 1 + rng() % 10;
  for (std::size_t tries = 0; ops.size() < want && tries < 64; ++tries) {
    const Vertex u = pick();
    const Vertex v = pick();
    if (u == v) continue;
    const auto key = g.directed() ? std::make_pair(u, v)
                                  : std::make_pair(std::min(u, v), std::max(u, v));
    if (!touched.insert(key).second) continue;
    const bool insert = !has_arc(g, u, v);
    if (insert && (isolated(u) || isolated(v))) ++hits.isolated;
    if (!insert && (g.out_degree(u) == 1 ||
                    (!g.directed() && g.out_degree(v) == 1))) {
      ++hits.last_arc;
    }
    ops.push_back(op(u, v, insert));
    ++ops_at[u];
    ++ops_at[v];
  }
  for (const EdgeOp& o : ops) {
    hits.first_vertex += o.u == 0 || o.v == 0;
    hits.last_vertex += o.u == n - 1 || o.v == n - 1;
  }
  for (const int count : ops_at) hits.shared_vertex += count >= 2;
  return ops;
}

TEST(ApplyEdgeOps, MatchesRebuildOnRandomGraphs) {
  Coverage hits;
  int batches = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Xoshiro256 rng(seed);
    const bool directed = seed % 2 == 0;
    const Vertex n = static_cast<Vertex>(2 + rng() % 30);
    // Sparse enough to leave isolated vertices and degree-one vertices.
    const EdgeId m = rng() % (2 * static_cast<EdgeId>(n));
    CsrGraph g = erdos_renyi(n, m, directed, seed);
    for (int step = 0; step < 4; ++step) {
      const std::vector<EdgeOp> ops = random_batch(g, rng, hits);
      if (ops.empty()) continue;
      const CsrGraph expected = rebuilt(g, ops);
      const CsrGraph next = apply_edge_ops(g, ops);
      ASSERT_EQ(next, expected) << "seed " << seed << " step " << step
                                << (directed ? " directed" : " undirected");
      ++batches;
      g = next;
    }
  }
  EXPECT_GE(batches, 400);
  EXPECT_GT(hits.first_vertex, 0);
  EXPECT_GT(hits.last_vertex, 0);
  EXPECT_GT(hits.shared_vertex, 0);
  EXPECT_GT(hits.last_arc, 0);
  EXPECT_GT(hits.isolated, 0);
}

TEST(ApplyEdgeOps, EdgeCasesMatchRebuild) {
  // Vertex 5 is isolated; vertex 4 has one neighbour.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      6, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<std::vector<EdgeOp>> batches = {
      {op(0, 5, true)},                                   // ends, isolated
      {op(5, 0, true), op(4, 5, true)},                   // reversed order
      {op(3, 4, false)},                                  // last arc of 4
      {op(2, 0, false), op(2, 1, false), op(2, 4, true),  // three at vertex 2
       op(2, 5, true)},
      {op(0, 1, false), op(0, 2, false), op(0, 3, true)},  // rewire vertex 0
  };
  for (const std::vector<EdgeOp>& ops : batches) {
    EXPECT_EQ(apply_edge_ops(g, ops), rebuilt(g, ops));
  }
  const CsrGraph d = CsrGraph::from_edges(4, {{0, 3}, {3, 0}, {1, 2}}, true);
  const std::vector<EdgeOp> ops = {op(3, 0, false), op(0, 3, false),
                                   op(2, 1, true), op(3, 1, true)};
  EXPECT_EQ(apply_edge_ops(d, ops), rebuilt(d, ops));
}

TEST(ApplyEdgeOps, SingleEdgeHelpersAreOneOpBatches) {
  const CsrGraph g = cycle(5);
  EXPECT_EQ(with_edge_inserted(g, 0, 2), rebuilt(g, {op(0, 2, true)}));
  EXPECT_EQ(with_edge_removed(g, 4, 0), rebuilt(g, {op(4, 0, false)}));
}

TEST(ApplyEdgeOps, IllegalOpsThrowTheOldMessagesAndChangeNothing) {
  const CsrGraph g = cycle(5);
  EXPECT_EQ(rejection(g, {op(0, 1, true)}), "arc already present");
  EXPECT_EQ(rejection(g, {op(0, 2, false)}), "arc not present");
  EXPECT_EQ(rejection(g, {op(3, 3, true)}),
            "self-loops do not affect betweenness");
  EXPECT_EQ(rejection(g, {op(0, 5, true)}), "update endpoint out of range");
  EXPECT_EQ(rejection(g, {}), "apply_edge_ops on an empty batch");
  // An illegal op after legal ones still rejects the whole batch.
  EXPECT_EQ(rejection(g, {op(0, 2, true), op(1, 3, true), op(4, 0, true)}),
            "arc already present");
  // A batch is checked against its input, not op by op: a delete after an
  // insert of the same arc is rejected, and so is a repeated op.
  EXPECT_EQ(rejection(g, {op(0, 2, true), op(0, 2, false)}),
            "arc not present");
  EXPECT_EQ(rejection(g, {op(0, 2, true), op(0, 2, true)}),
            "two ops on one arc");
  EXPECT_EQ(rejection(g, {op(0, 2, true), op(2, 0, true)}),
            "two ops on one arc");
  EXPECT_EQ(rejection(g, {op(0, 1, false), op(1, 0, false)}),
            "two ops on one arc");
  // A one-sided arc in a graph built as undirected.
  const CsrGraph lopsided = CsrGraph::from_edges(3, {{0, 1}}, false);
  EXPECT_EQ(rejection(lopsided, {op(0, 1, false)}), "symmetric arc missing");

  // The single-edge helpers throw the same messages.
  EXPECT_EQ(thrown([&] { return with_edge_inserted(g, 1, 2); }),
            "arc already present");
  EXPECT_EQ(thrown([&] { return with_edge_removed(g, 1, 3); }),
            "arc not present");
  EXPECT_EQ(thrown([&] { return with_edge_inserted(g, 2, 2); }),
            "self-loops do not affect betweenness");
  EXPECT_EQ(thrown([&] { return with_edge_removed(lopsided, 0, 1); }),
            "symmetric arc missing");

  // Directed graphs: (u, v) and (v, u) are different arcs.
  const CsrGraph d = CsrGraph::from_edges(3, {{0, 1}, {1, 2}}, true);
  EXPECT_EQ(rejection(d, {op(1, 0, true), op(0, 1, false)}), "");
  EXPECT_EQ(rejection(d, {op(1, 0, true), op(1, 0, true)}),
            "two ops on one arc");
  EXPECT_EQ(rejection(d, {op(2, 1, false)}), "arc not present");
}

}  // namespace
}  // namespace apgre
