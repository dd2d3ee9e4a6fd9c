// apply_edge_ops_in_place (graph/update.hpp), the one CSR edit every
// edge-update path runs, and apply_edge_ops, the same edit on a copy,
// diffed against the obvious oracle: the successor rebuilt from its arc
// list by CsrGraph::from_edges. A seeded sweep over random directed and
// undirected graphs runs growing, shrinking and mixed batches through both
// entry points and covers the edit's edge cases (ops at vertex 0 and
// n - 1, several ops at one vertex, a vertex losing its last arc, an
// insert at an isolated vertex), counting that it hit each; the
// illegal-op tests pin the messages and that a rejected batch leaves its
// input untouched, in place or not. The edit shifts arc segments through
// computed indices, so CI runs this binary under ASan + UBSan.
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
/// returns; also checks that `g` is unchanged afterwards, and that the
/// in-place edit throws the same message and, when it throws, leaves its
/// graph equal to `g`.
std::string rejection(const CsrGraph& g, const std::vector<EdgeOp>& ops) {
  const CsrGraph before = g;
  std::string message = thrown([&] { return apply_edge_ops(g, ops); });
  EXPECT_EQ(g, before) << "apply_edge_ops changed its input";
  CsrGraph edited = g;
  const std::string in_place = thrown([&] {
    apply_edge_ops_in_place(edited, ops);
    return CsrGraph{};
  });
  EXPECT_EQ(in_place, message) << "the two entry points disagree";
  if (!message.empty()) {
    EXPECT_EQ(edited, before) << "a rejected in-place edit changed its graph";
  }
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

/// Which ops a random batch may carry.
enum class Mix { kGrow, kShrink, kMixed };

/// A random legal batch on `g`: endpoints biased to 0, n - 1 and one hub
/// vertex, at most one op per edge, each inserting an absent arc (not for
/// kShrink) or deleting a present one (not for kGrow). kShrink draws the
/// second endpoint among the first one's neighbours.
std::vector<EdgeOp> random_batch(const CsrGraph& g, Xoshiro256& rng, Mix mix,
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
    const auto out = g.out_neighbors(u);
    if (mix == Mix::kShrink && out.empty()) continue;
    const Vertex v =
        mix == Mix::kShrink ? out[rng() % out.size()] : pick();
    if (u == v) continue;
    const bool insert = !has_arc(g, u, v);
    if (insert ? mix == Mix::kShrink : mix == Mix::kGrow) continue;
    const auto key = g.directed() ? std::make_pair(u, v)
                                  : std::make_pair(std::min(u, v), std::max(u, v));
    if (!touched.insert(key).second) continue;
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
  int grown = 0;
  int shrunk = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Xoshiro256 rng(seed);
    const bool directed = seed % 2 == 0;
    const Vertex n = static_cast<Vertex>(2 + rng() % 30);
    // Sparse enough to leave isolated vertices and degree-one vertices.
    const EdgeId m = rng() % (2 * static_cast<EdgeId>(n));
    CsrGraph g = erdos_renyi(n, m, directed, seed);
    // The in-place trajectory: one graph edited batch after batch, so its
    // arrays carry the capacity earlier batches left behind.
    CsrGraph edited = g;
    for (int step = 0; step < 6; ++step) {
      const Mix mix = step % 3 == 0   ? Mix::kGrow
                      : step % 3 == 1 ? Mix::kShrink
                                      : Mix::kMixed;
      const std::vector<EdgeOp> ops = random_batch(g, rng, mix, hits);
      if (ops.empty()) continue;
      const auto where = [&] {
        return "seed " + std::to_string(seed) + " step " +
               std::to_string(step) + (directed ? " directed" : " undirected");
      };
      const CsrGraph expected = rebuilt(g, ops);
      const CsrGraph next = apply_edge_ops(g, ops);
      ASSERT_EQ(next, expected) << where();
      apply_edge_ops_in_place(edited, ops);
      ASSERT_EQ(edited, expected) << where() << " (in place)";
      ++batches;
      grown += next.num_arcs() > g.num_arcs();
      shrunk += next.num_arcs() < g.num_arcs();
      g = next;
    }
  }
  EXPECT_GE(batches, 800);
  EXPECT_GE(grown, 200);
  EXPECT_GE(shrunk, 200);
  EXPECT_GT(hits.first_vertex, 0);
  EXPECT_GT(hits.last_vertex, 0);
  EXPECT_GT(hits.shared_vertex, 0);
  EXPECT_GT(hits.last_arc, 0);
  EXPECT_GT(hits.isolated, 0);
}

TEST(ApplyEdgeOps, InPlaceEditKeepsTheArrays) {
  // A shrinking batch followed by a growing one of the same size: the
  // second fits the capacity the first left, so the arc array is edited
  // where it lies.
  CsrGraph g = complete(6);
  const CsrGraph original = g;
  const std::vector<EdgeOp> remove = {op(0, 1, false), op(2, 5, false),
                                      op(3, 4, false)};
  const std::vector<EdgeOp> restore = {op(0, 1, true), op(2, 5, true),
                                       op(3, 4, true)};
  apply_edge_ops_in_place(g, remove);
  const Vertex* const arcs = g.out_neighbors(0).data();
  EXPECT_EQ(g, rebuilt(original, remove));
  apply_edge_ops_in_place(g, restore);
  EXPECT_EQ(g, original);
  EXPECT_EQ(g.out_neighbors(0).data(), arcs);
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
  const auto in_place = [](CsrGraph graph, const std::vector<EdgeOp>& ops) {
    apply_edge_ops_in_place(graph, ops);
    return graph;
  };
  for (const std::vector<EdgeOp>& ops : batches) {
    EXPECT_EQ(apply_edge_ops(g, ops), rebuilt(g, ops));
    EXPECT_EQ(in_place(g, ops), rebuilt(g, ops));
  }
  const CsrGraph d = CsrGraph::from_edges(4, {{0, 3}, {3, 0}, {1, 2}}, true);
  const std::vector<EdgeOp> ops = {op(3, 0, false), op(0, 3, false),
                                   op(2, 1, true), op(3, 1, true)};
  EXPECT_EQ(apply_edge_ops(d, ops), rebuilt(d, ops));
  EXPECT_EQ(in_place(d, ops), rebuilt(d, ops));
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
