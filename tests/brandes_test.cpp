#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bc/brandes.hpp"
#include "bc/brandes_kernel.hpp"
#include "bc/naive.hpp"
#include "bc/parallel_preds.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

TEST(NaiveBc, PathHasQuadraticProfile) {
  // Ordered-pair convention: interior vertex i of an n-path scores
  // 2 * i * (n - 1 - i).
  const auto bc = naive_bc(path(6));
  for (Vertex i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(bc[i], 2.0 * i * (5.0 - i)) << "vertex " << i;
  }
}

TEST(NaiveBc, StarCentreDominates) {
  const auto bc = naive_bc(star(8));
  EXPECT_DOUBLE_EQ(bc[0], 7.0 * 6.0);  // (n-1)(n-2) ordered pairs
  for (Vertex v = 1; v < 8; ++v) EXPECT_DOUBLE_EQ(bc[v], 0.0);
}

TEST(NaiveBc, CompleteGraphIsZero) {
  for (double score : naive_bc(complete(6))) EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(NaiveBc, DirectedChain) {
  // 0 -> 1 -> 2: only vertex 1 is interior, for exactly one ordered pair.
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}}, true);
  const auto bc = naive_bc(g);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(NaiveBc, SplitParallelPaths) {
  // Diamond 0 -> {1,2} -> 3: two shortest paths, each middle vertex carries
  // half of the single (0, 3) pair.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, true);
  const auto bc = naive_bc(g);
  EXPECT_DOUBLE_EQ(bc[1], 0.5);
  EXPECT_DOUBLE_EQ(bc[2], 0.5);
}

TEST(NaiveBc, RejectsHugeGraphs) {
  EXPECT_THROW(naive_bc(erdos_renyi(5000, 5000, false, 1)), Error);
}

TEST(BrandesBc, MatchesAnalyticShapes) {
  testing::expect_scores_near(naive_bc(path(7)), brandes_bc(path(7)));
  testing::expect_scores_near(naive_bc(star(9)), brandes_bc(star(9)));
  testing::expect_scores_near(naive_bc(cycle(9)), brandes_bc(cycle(9)));
  testing::expect_scores_near(naive_bc(binary_tree(15)), brandes_bc(binary_tree(15)));
}

TEST(BrandesBc, HandlesDisconnectedGraphs) {
  const CsrGraph g =
      CsrGraph::undirected_from_edges(7, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});
  testing::expect_scores_near(naive_bc(g), brandes_bc(g));
}

TEST(BrandesBc, EmptyAndTrivialGraphs) {
  EXPECT_TRUE(brandes_bc(CsrGraph::from_edges(0, {}, false)).empty());
  const auto single = brandes_bc(CsrGraph::from_edges(1, {}, false));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 0.0);
}

TEST(BrandesBc, FromSourcesSubsetAndWeight) {
  const CsrGraph g = path(5);
  const auto full = brandes_bc(g);
  // Summing per-source contributions over all sources reproduces the total.
  std::vector<double> acc(5, 0.0);
  for (Vertex s = 0; s < 5; ++s) {
    const auto partial = brandes_bc_from_sources(g, {s}, 1.0);
    for (Vertex v = 0; v < 5; ++v) acc[v] += partial[v];
  }
  testing::expect_scores_near(full, acc);
  // Weight scales linearly.
  const auto weighted = brandes_bc_from_sources(g, {0}, 3.0);
  const auto unweighted = brandes_bc_from_sources(g, {0}, 1.0);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(weighted[v], 3.0 * unweighted[v]);
  }
}

/// The paper's `preds-serial` baseline, Brandes with predecessor lists
/// run serially: the `preds` kernel on a one-worker scheduler.
std::vector<double> preds_serial_bc(const CsrGraph& g) {
  WorkStealingScheduler serial(SchedulerOptions{.threads = 1});
  return parallel_preds_bc(g, serial);
}

TEST(PredsSerialBc, MatchesSuccessorVariant) {
  for (const CsrGraph& g :
       {path(7), star(9), cycle(9), barbell(5, 2), paper_figure3()}) {
    testing::expect_scores_near(brandes_bc(g), preds_serial_bc(g));
  }
}

class BrandesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BrandesSweep, MatchesNaiveOracle) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    testing::expect_scores_near(naive_bc(gc.graph), brandes_bc(gc.graph));
  }
}

TEST_P(BrandesSweep, PredsSerialMatchesOracle) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    testing::expect_scores_near(naive_bc(gc.graph), preds_serial_bc(gc.graph));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrandesSweep,
                         ::testing::Values(5, 15, 25, 35, 45, 55, 65, 75));

// ---- forward_sweep contract -----------------------------------------------

/// A textbook BFS from `s`: it tests every arc of every reached vertex,
/// sums sigma per arc as it goes and lists each queued vertex's DAG
/// successors in CSR order.
struct ReferenceSweep {
  std::vector<Vertex> queue;
  std::vector<std::int32_t> dist;  ///< -1 when unreached
  std::vector<double> sigma;
  std::vector<std::vector<Vertex>> succ;  ///< per queue position
};

ReferenceSweep reference_sweep(const CsrGraph& g, Vertex s) {
  ReferenceSweep r;
  r.dist.assign(g.num_vertices(), -1);
  r.sigma.assign(g.num_vertices(), 0.0);
  r.dist[s] = 0;
  r.sigma[s] = 1.0;
  r.queue.push_back(s);
  for (std::size_t head = 0; head < r.queue.size(); ++head) {
    const Vertex v = r.queue[head];
    r.succ.emplace_back();
    for (Vertex w : g.out_neighbors(v)) {
      if (r.dist[w] < 0) {
        r.dist[w] = r.dist[v] + 1;
        r.queue.push_back(w);
      }
      if (r.dist[w] == r.dist[v] + 1) {
        r.sigma[w] += r.sigma[v];
        r.succ.back().push_back(w);
      }
    }
  }
  return r;
}

/// Sweeps every root of `g` with `scratch` and checks the queue, each
/// queued vertex's successors, and dist and sigma bit for bit against the
/// reference; after each root's reset the scratch must be clean again.
void expect_sweeps_match_reference(const CsrGraph& g,
                                   detail::BrandesScratch& scratch) {
  scratch.ensure(g.num_vertices(), g.num_arcs());
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    SCOPED_TRACE(::testing::Message() << "root " << s);
    const ReferenceSweep ref = reference_sweep(g, s);
    detail::forward_sweep(g, s, scratch.dist.data(), scratch.sigma.data(),
                          scratch.dag);
    const detail::SuccessorDag& dag = scratch.dag;
    ASSERT_EQ(dag.reached, ref.queue.size());
    ASSERT_LE(dag.scanned, dag.reached);
    for (std::size_t i = 0; i < dag.reached; ++i) {
      EXPECT_EQ(dag.queue[i], ref.queue[i]) << "queue slot " << i;
      const std::vector<Vertex> succ(
          dag.succ.begin() + static_cast<std::ptrdiff_t>(dag.succ_begin(i)),
          dag.succ.begin() + static_cast<std::ptrdiff_t>(dag.succ_end[i]));
      EXPECT_EQ(succ, ref.succ[i]) << "queue slot " << i;
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(scratch.dist[v],
                ref.dist[v] < 0 ? detail::kUnvisited : ref.dist[v])
          << "vertex " << v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scratch.sigma[v]),
                std::bit_cast<std::uint64_t>(ref.sigma[v]))
          << "vertex " << v;
    }
    scratch.reset_touched(g);
    for (std::size_t v = 0; v < scratch.dist.size(); ++v) {
      ASSERT_EQ(scratch.dist[v], detail::kUnvisited) << "vertex " << v;
      ASSERT_EQ(scratch.sigma[v], 0.0) << "vertex " << v;
    }
  }
}

TEST(ForwardSweep, DirectedOutTreeRecordsEveryArc) {
  // From the root every arc is a DAG arc, so `succ` fills to the arc count.
  const CsrGraph g = CsrGraph::from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {5, 6}}, /*directed=*/true);
  detail::BrandesScratch scratch;
  scratch.ensure(g.num_vertices(), g.num_arcs());
  detail::forward_sweep(g, 0, scratch.dist.data(), scratch.sigma.data(),
                        scratch.dag);
  EXPECT_EQ(scratch.dag.succ_end[scratch.dag.reached - 1], g.num_arcs());
  scratch.reset_touched(g);
  expect_sweeps_match_reference(g, scratch);
  expect_sweeps_match_reference(path(9), scratch);
}

TEST(ForwardSweep, DisconnectedGraphNeverStopsEarly) {
  // No root reaches every vertex, so every reached vertex is scanned.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {5, 6}, {6, 7}});
  detail::BrandesScratch scratch;
  expect_sweeps_match_reference(g, scratch);
  detail::forward_sweep(g, 0, scratch.dist.data(), scratch.sigma.data(),
                        scratch.dag);
  EXPECT_EQ(scratch.dag.scanned, scratch.dag.reached);
  scratch.reset_touched(g);
}

TEST(ForwardSweep, SingleVertex) {
  detail::BrandesScratch scratch;
  expect_sweeps_match_reference(CsrGraph::from_edges(1, {}, false), scratch);
}

TEST(ForwardSweep, CliqueStopsAfterTheRoot) {
  const CsrGraph g = complete(24);
  detail::BrandesScratch scratch;
  expect_sweeps_match_reference(g, scratch);
  detail::forward_sweep(g, 5, scratch.dist.data(), scratch.sigma.data(),
                        scratch.dag);
  EXPECT_EQ(scratch.dag.scanned, 1u);
  EXPECT_EQ(scratch.dag.reached, 24u);
  scratch.reset_touched(g);
  EXPECT_EQ(scratch.traversed_arcs, 24u * 23u + 23u);
}

TEST(ForwardSweep, ScratchReusedOnASmallerGraph) {
  detail::BrandesScratch scratch;
  expect_sweeps_match_reference(barbell(6, 3), scratch);
  expect_sweeps_match_reference(cycle(5), scratch);
  expect_sweeps_match_reference(paper_figure3(), scratch);
  expect_sweeps_match_reference(CsrGraph::from_edges(1, {}, true), scratch);
}

TEST(ForwardSweep, MatchesReferenceOverTheCorpus) {
  detail::BrandesScratch scratch;
  for (const auto& gc : testing::graph_family(7, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    expect_sweeps_match_reference(gc.graph, scratch);
  }
}

}  // namespace
}  // namespace apgre
