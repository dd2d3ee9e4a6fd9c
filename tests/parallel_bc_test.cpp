#include <gtest/gtest.h>

#include "bc/brandes.hpp"
#include "bc/coarse.hpp"
#include "bc/hybrid.hpp"
#include "bc/lockfree.hpp"
#include "bc/parallel_preds.hpp"
#include "bc/parallel_succs.hpp"
#include "graph/generators.hpp"
#include "support/sched/scheduler.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using BcFn = std::vector<double> (*)(const CsrGraph&, WorkStealingScheduler&);

std::vector<double> hybrid_default(const CsrGraph& g,
                                   WorkStealingScheduler& sched) {
  return hybrid_bc(g, sched);
}

WorkStealingScheduler& shared_pool() { return WorkStealingScheduler::shared(); }

/// A private pool of exactly `threads` workers.
WorkStealingScheduler pool(int threads) {
  SchedulerOptions opts;
  opts.threads = threads;
  return WorkStealingScheduler(opts);
}

struct NamedAlgorithm {
  const char* name;
  BcFn fn;
};

const NamedAlgorithm kAlgorithms[] = {
    {"preds", parallel_preds_bc}, {"succs", parallel_succs_bc},
    {"lockfree", lockfree_bc},    {"coarse", coarse_bc},
    {"hybrid", hybrid_default},
};

TEST(ParallelBc, AllAgreeOnShapes) {
  for (const CsrGraph& g :
       {path(9), star(12), cycle(10), complete(7), barbell(5, 2),
        binary_tree(15)}) {
    const auto expected = brandes_bc(g);
    for (const auto& alg : kAlgorithms) {
      SCOPED_TRACE(alg.name);
      testing::expect_scores_near(expected, alg.fn(g, shared_pool()));
    }
  }
}

TEST(ParallelBc, AllHandleDisconnectedGraphs) {
  const CsrGraph g = CsrGraph::undirected_from_edges(
      9, {{0, 1}, {1, 2}, {2, 0}, {4, 5}, {6, 7}, {7, 8}});
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, shared_pool()));
  }
}

TEST(ParallelBc, AllHandleEmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(0, {}, false);
  for (const auto& alg : kAlgorithms) {
    EXPECT_TRUE(alg.fn(g, shared_pool()).empty()) << alg.name;
  }
}

TEST(ParallelBc, DirectedPaperFigure3) {
  const CsrGraph g = paper_figure3();
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, shared_pool()));
  }
}

TEST(HybridBc, ForcedBottomUpStillCorrect) {
  // alpha tiny + beta huge forces bottom-up from the first level.
  HybridOptions opts;
  opts.alpha = 1e-9;
  opts.beta = 1e9;
  const CsrGraph g = barabasi_albert(200, 3, 7);
  testing::expect_scores_near(
      brandes_bc(g), hybrid_bc(g, shared_pool(), opts));
}

TEST(HybridBc, ForcedTopDownStillCorrect) {
  HybridOptions opts;
  opts.alpha = 1e9;  // never switch
  const CsrGraph g = barabasi_albert(200, 3, 8);
  testing::expect_scores_near(
      brandes_bc(g), hybrid_bc(g, shared_pool(), opts));
}

TEST(ParallelBc, MultithreadedRunsMatchSerial) {
  // Even on a single hardware core, oversubscribed workers must not change
  // results (races would).
  WorkStealingScheduler sched = pool(4);
  const CsrGraph g = testing::graph_family(9, /*tiny=*/false)[4].graph;  // BA
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, sched));
  }
}

class ParallelSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ParallelSweep, AgreesWithBrandesOnRandomGraphs) {
  const auto [seed, threads] = GetParam();
  WorkStealingScheduler sched = pool(threads);
  for (const auto& gc : testing::graph_family(seed, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    const auto expected = brandes_bc(gc.graph);
    for (const auto& alg : kAlgorithms) {
      SCOPED_TRACE(alg.name);
      testing::expect_scores_near(expected, alg.fn(gc.graph, sched));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelSweep,
                         ::testing::Combine(::testing::Values<std::uint64_t>(6, 16, 26),
                                            ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace apgre
