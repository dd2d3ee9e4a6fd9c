// Shared helpers for the APGRE test suite: BC score comparison with mixed
// absolute/relative tolerance and the seeded random-graph corpus the
// property sweeps iterate over (shared with the check subsystem and the
// apgre_diff driver via check/corpus.hpp).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"  // transitively expected by older tests
#include "graph/transform.hpp"

namespace apgre::testing {

/// Element-wise comparison of BC score vectors. Accumulation order differs
/// between algorithms, so exact equality is not expected. On failure the
/// message leads with the worst-offending vertex and both vectors' norms,
/// so a diverging algorithm is localisable from the log alone.
inline void expect_scores_near(const std::vector<double>& expected,
                               const std::vector<double>& actual,
                               double rel = 1e-7, double abs = 1e-6) {
  ASSERT_EQ(expected.size(), actual.size());
  const ScoreComparison cmp = compare_scores(expected, actual, rel, abs);
  EXPECT_TRUE(cmp.ok) << cmp.num_violations << " of " << expected.size()
                      << " vertices over tolerance; worst vertex "
                      << cmp.worst_vertex << ": expected "
                      << cmp.expected_score << ", actual " << cmp.actual_score
                      << " (divergence " << cmp.max_divergence
                      << ", tolerance excess " << cmp.worst_excess
                      << "); |expected|_2 = " << cmp.expected_norm
                      << ", |actual|_2 = " << cmp.actual_norm;
}

/// A cold APGRE solve of `g` at `opts`, algorithm forced to APGRE and
/// halving off: the scores a patched contribution store must equal bit for
/// bit at the same options and worker count.
inline std::vector<double> cold_apgre_scores(const CsrGraph& g,
                                             BcOptions opts = {}) {
  opts.algorithm = Algorithm::kApgre;
  opts.undirected_halving = false;
  return betweenness(g, opts).scores;
}

/// Backwards-compatible aliases: the corpus moved into the library so the
/// check subsystem and apgre_diff share it (check/corpus.hpp).
using GraphCase = CorpusCase;

inline std::vector<GraphCase> graph_family(std::uint64_t seed, bool tiny) {
  return graph_corpus(seed, tiny);
}

/// A graph with one large block that dominates APGRE's scoring cost: a
/// 130-clique (16,770 arcs) with caveman blocks, chains and pendants
/// attached. Scoring splits the clique into root batches, so tests reach
/// that path without setting any option.
inline CsrGraph large_block_graph() {
  CsrGraph g = complete(130);
  g = attach_communities(g, 40, 6, 42);
  g = attach_chains(g, 20, 3, 43);
  return attach_pendants(g, 120, 44);
}

/// A graph whose top block carries nearly all of the scoring cost (arcs x
/// roots) while holding fewer than 1 << 14 arcs: a 90-clique (8,010 arcs)
/// with caveman blocks and pendants attached. The cost-share rule splits
/// the clique into root batches; a fixed arc cutoff at 1 << 14 would not.
inline CsrGraph dominant_block_graph() {
  CsrGraph g = complete(90);
  g = attach_communities(g, 30, 6, 52);
  return attach_pendants(g, 80, 53);
}

}  // namespace apgre::testing
