#include <gtest/gtest.h>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

TEST(BcApi, AlgorithmNamesRoundTrip) {
  for (Algorithm a :
       {Algorithm::kNaive, Algorithm::kBrandesSerial, Algorithm::kParallelPreds,
        Algorithm::kParallelSuccs, Algorithm::kLockFree, Algorithm::kCoarse,
        Algorithm::kHybrid, Algorithm::kApgre, Algorithm::kSampling}) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_EQ(algorithm_from_name("async"), Algorithm::kCoarse);    // paper alias
  EXPECT_THROW(algorithm_from_name("bogus"), OptionError);
}

TEST(BcApi, DefaultsToApgre) {
  const CsrGraph g = barbell(5, 2);
  const BcResult r = betweenness(g);
  testing::expect_scores_near(brandes_bc(g), r.scores);
  EXPECT_GT(r.apgre_stats.num_subgraphs, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.mteps, 0.0);
}

TEST(BcApi, EveryExactAlgorithmAgrees) {
  const CsrGraph g = attach_pendants(caveman(4, 6, 2), 10, 3);
  const auto expected = brandes_bc(g);
  for (Algorithm a :
       {Algorithm::kNaive, Algorithm::kBrandesSerial, Algorithm::kParallelPreds,
        Algorithm::kParallelSuccs, Algorithm::kLockFree, Algorithm::kCoarse,
        Algorithm::kHybrid, Algorithm::kApgre}) {
    SCOPED_TRACE(algorithm_name(a));
    BcOptions opts;
    opts.algorithm = a;
    testing::expect_scores_near(expected, betweenness(g, opts).scores);
  }
}

TEST(BcApi, UndirectedHalvingHalvesSymmetricScores) {
  const CsrGraph g = path(6);
  BcOptions opts;
  opts.undirected_halving = true;
  const auto halved = betweenness(g, opts).scores;
  const auto full = betweenness(g).scores;
  for (Vertex v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(halved[v] * 2.0, full[v]);
}

TEST(BcApi, HalvingIgnoredOnDirectedGraphs) {
  const CsrGraph g = paper_figure3();
  BcOptions opts;
  opts.undirected_halving = true;
  opts.algorithm = Algorithm::kBrandesSerial;
  testing::expect_scores_near(brandes_bc(g), betweenness(g, opts).scores);
}

TEST(BcApi, ThreadOptionIsHonoured) {
  const CsrGraph g = barabasi_albert(100, 2, 9);
  BcOptions opts;
  opts.algorithm = Algorithm::kParallelSuccs;
  opts.threads = 3;
  testing::expect_scores_near(brandes_bc(g), betweenness(g, opts).scores);
}

TEST(BcApi, SamplingPassesParametersThrough) {
  const CsrGraph g = barabasi_albert(100, 2, 10);
  BcOptions opts;
  opts.algorithm = Algorithm::kSampling;
  opts.num_samples = 100;  // full sample: exact
  opts.seed = 17;
  testing::expect_scores_near(brandes_bc(g), betweenness(g, opts).scores);
}

TEST(BcApi, ApgreOptionsPassedThrough) {
  const CsrGraph g = attach_pendants(barbell(6, 2), 8, 1);
  BcOptions opts;
  opts.apgre.partition.total_redundancy = false;
  const BcResult r = betweenness(g, opts);
  testing::expect_scores_near(brandes_bc(g), r.scores);
  EXPECT_EQ(r.apgre_stats.num_pendants_removed, 0u);
  EXPECT_EQ(r.apgre_stats.peeled_vertices, 0u) << "no gamma, no peel";

  // Directed graphs bypass the peel at default options.
  const CsrGraph directed =
      attach_pendants(erdos_renyi(40, 120, /*directed=*/true, 2), 6, 3);
  const BcResult d = betweenness(directed);
  testing::expect_scores_near(brandes_bc(directed), d.scores);
  EXPECT_EQ(d.apgre_stats.peeled_vertices, 0u);
  EXPECT_EQ(d.apgre_stats.core_fraction, 1.0);
}

}  // namespace
}  // namespace apgre
