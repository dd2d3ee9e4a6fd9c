// IncrementalBc (bc/incremental.hpp): the iCentral-style localized update
// path. The tests pin the routing (local updates must NOT re-decompose;
// "bcc.decompositions" is the witness), check that pendant attach/detach
// leave a store the next local batch can patch, and replay randomized
// insert/delete/attach/detach trajectories over the seeded corpus and an
// AP-rich peeled graph, comparing bit for bit with a cold APGRE solve after
// EVERY step — whatever path an update took, the scores must be the ones a
// fresh solve computes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bc/brandes.hpp"
#include "bc/incremental.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using testing::cold_apgre_scores;
using testing::expect_scores_near;

std::uint64_t decompositions() {
  return metrics().counter("bcc.decompositions").value();
}

/// K5 on {0..4} sharing articulation point 0 with the triangle {0,5,6}:
/// two blocks, one dense enough that chord deletes stay biconnected.
CsrGraph k5_plus_triangle() {
  return CsrGraph::undirected_from_edges(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
          {2, 3}, {2, 4}, {3, 4}, {0, 5}, {5, 6}, {6, 0}});
}

/// Apply one edit as a batch of one (apply_batch is the only edge-update
/// method) and report how it was routed: a local batch grades by the edit's
/// direction, a downgraded one kStructural.
UpdateLocality apply_one(IncrementalBc& engine, Vertex u, Vertex v,
                         bool inserting) {
  const BatchStats stats =
      engine.apply_batch(UpdateRequest{{EdgeOp{u, v, inserting}}});
  if (stats.batch_downgrades != 0) return UpdateLocality::kStructural;
  return inserting ? UpdateLocality::kLocalInsert
                   : UpdateLocality::kLocalDelete;
}

// The acceptance criterion: an intra-block biconnectivity-preserving
// delete completes without incrementing bcc.decompositions, and the
// incremental scores still match a fresh static solve.
TEST(IncrementalBc, LocalDeleteAvoidsRedecomposition) {
  IncrementalBc engine(k5_plus_triangle());
  const std::uint64_t after_init = decompositions();

  // K5 minus {1,2} is still one biconnected component.
  EXPECT_EQ(apply_one(engine, 1, 2, false), UpdateLocality::kLocalDelete);
  EXPECT_EQ(decompositions(), after_init)
      << "a biconnectivity-preserving delete must not re-decompose";
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  // Restoring the edge is a chord insert — also local.
  EXPECT_EQ(apply_one(engine, 1, 2, true), UpdateLocality::kLocalInsert);
  EXPECT_EQ(decompositions(), after_init);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  EXPECT_EQ(engine.stats().local_deletes, 1u);
  EXPECT_EQ(engine.stats().local_inserts, 1u);
  EXPECT_EQ(engine.stats().structural_resolves, 0u);
}

TEST(IncrementalBc, StructuralUpdatesFallBackToFullSolve) {
  IncrementalBc engine(k5_plus_triangle());
  const std::uint64_t after_init = decompositions();

  // Deleting a triangle edge dissolves the {0,5,6} block into bridges.
  EXPECT_EQ(apply_one(engine, 5, 6, false), UpdateLocality::kStructural);
  EXPECT_EQ(engine.stats().structural_resolves, 1u);
  EXPECT_EQ(decompositions(), after_init + 1);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  // Re-inserting it has an articulation-point endpoint on each side of the
  // now-split tree — structural again.
  EXPECT_EQ(apply_one(engine, 5, 6, true), UpdateLocality::kStructural);
  EXPECT_EQ(engine.stats().structural_resolves, 2u);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());
}

// Attach and detach each leave a valid contribution store: the scores are
// a cold solve's, bit for bit, and the next local batch patches that store
// without a downgrade or a decomposition.
TEST(IncrementalBc, PendantAttachDetachKeepTheStoreForTheNextLocalBatch) {
  IncrementalBc engine(k5_plus_triangle());
  // K5 chord 1-2: deleting and re-inserting it stays inside one block.
  const auto next_local_batch_stays_local = [&engine](bool insert) {
    const std::uint64_t before = decompositions();
    const BatchStats batch =
        engine.apply_batch(UpdateRequest{{EdgeOp{1, 2, insert}}});
    EXPECT_EQ(batch.batch_downgrades, 0u);
    EXPECT_EQ(decompositions(), before) << "a local batch must not decompose";
    EXPECT_EQ(cold_apgre_scores(engine.graph()), engine.scores());
  };

  const std::uint64_t before_attach = decompositions();
  const Vertex pendant = engine.attach_pendant(3);
  EXPECT_EQ(pendant, 7u);
  EXPECT_EQ(engine.graph().num_vertices(), 8u);
  EXPECT_EQ(decompositions(), before_attach + 1) << "attach re-solves once";
  EXPECT_EQ(engine.scores()[pendant], 0.0);
  EXPECT_EQ(cold_apgre_scores(engine.graph()), engine.scores());
  next_local_batch_stays_local(/*insert=*/false);

  engine.detach_vertex(pendant);
  EXPECT_EQ(engine.scores()[pendant], 0.0);
  EXPECT_EQ(cold_apgre_scores(engine.graph()), engine.scores());
  next_local_batch_stays_local(/*insert=*/true);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  EXPECT_EQ(engine.stats().pendant_attaches, 1u);
  EXPECT_EQ(engine.stats().local_deletes, 1u);
  EXPECT_EQ(engine.stats().local_inserts, 1u);
  // The attach and the detach batch (isolating a vertex is structural).
  EXPECT_EQ(engine.stats().structural_resolves, 2u);

  // Detaching an interior vertex is one batch of its four edges.
  const std::uint64_t batches = engine.stats().batches;
  const std::uint64_t edges = engine.stats().batch_edges;
  engine.detach_vertex(1);
  EXPECT_EQ(engine.stats().batches, batches + 1);
  EXPECT_EQ(engine.stats().batch_edges, edges + 4);
  EXPECT_EQ(engine.stats().structural_resolves, 3u);
  EXPECT_EQ(engine.scores()[1], 0.0);
  EXPECT_EQ(cold_apgre_scores(engine.graph()), engine.scores());
  // Detaching it again is a no-op.
  engine.detach_vertex(1);
  EXPECT_EQ(engine.stats().batches, batches + 1);
  EXPECT_EQ(engine.stats().structural_resolves, 3u);
}

// Satellite regression: directed graphs route every edge update through
// the conservative structural path (the block-cut machinery is
// undirected), and the scores still come out exact.
TEST(IncrementalBc, DirectedUpdatesAreConservativelyStructural) {
  const CsrGraph g =
      CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, true);
  IncrementalBc engine(g);
  EXPECT_EQ(apply_one(engine, 0, 2, true), UpdateLocality::kStructural);
  EXPECT_EQ(apply_one(engine, 0, 2, false), UpdateLocality::kStructural);
  EXPECT_EQ(engine.stats().structural_resolves, 2u);
  EXPECT_EQ(engine.stats().local_inserts, 0u);
  EXPECT_EQ(engine.stats().local_deletes, 0u);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());
}

TEST(IncrementalBc, IllegalUpdatesThrowBeforeAnyStateChange) {
  IncrementalBc engine(k5_plus_triangle());
  const std::vector<double> before = engine.scores();
  const CsrGraph graph_before = engine.graph();

  EXPECT_THROW(apply_one(engine, 0, 1, true), Error) << "edge already present";
  EXPECT_THROW(apply_one(engine, 1, 5, false), Error) << "edge not present";
  EXPECT_THROW(apply_one(engine, 2, 2, true), Error) << "self-loop";

  EXPECT_EQ(engine.graph(), graph_before);
  EXPECT_EQ(engine.scores(), before);
  EXPECT_EQ(engine.stats().structural_resolves, 0u);
}

/// An AP-rich graph the engine peels: a Barabasi-Albert core with
/// communities, chains and pendants attached.
CsrGraph social_analogue(std::uint64_t seed) {
  CsrGraph g = barabasi_albert(300, 4, seed);
  g = attach_communities(g, 24, 6, seed + 1);
  g = attach_chains(g, 16, 3, seed + 2);
  return attach_pendants(g, 80, seed + 3);
}

// Randomized trajectories over the seeded corpus and the social analogue:
// mixed inserts, deletes, pendant attaches and detaches, scores compared
// bit for bit with a cold APGRE solve after EVERY step, and with Brandes
// within tolerance once per graph. Also pins the routing invariant: the
// engine re-decomposes exactly once per structural resolve, never for
// local updates.
class IncrementalTrajectory : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalTrajectory, MatchesStaticOracleAfterEveryStep) {
  const std::uint64_t seed = GetParam();
  std::vector<testing::GraphCase> cases =
      testing::graph_family(seed, /*tiny=*/true);
  cases.push_back({"social_analogue", social_analogue(seed)});
  for (const auto& gc : cases) {
    if (gc.graph.num_vertices() < 4) continue;
    SCOPED_TRACE(gc.name);
    IncrementalBc engine(gc.graph);
    const std::uint64_t after_init = decompositions();
    std::uint64_t cold = 0;  // decompositions of the cold solves below

    Xoshiro256 rng(hash_combine64(seed, 0x7a7e));
    const int num_steps = gc.name == "social_analogue" ? 120 : 10;
    for (int step = 0; step < num_steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      switch (rng.bounded(8)) {
        case 0: {  // pendant attach
          const auto host =
              static_cast<Vertex>(rng.bounded(engine.graph().num_vertices()));
          engine.attach_pendant(host);
          break;
        }
        case 1: {  // detach: one batch deleting every incident edge
          const auto v =
              static_cast<Vertex>(rng.bounded(engine.graph().num_vertices()));
          engine.detach_vertex(v);
          break;
        }
        default: {  // edge insert or delete, whatever is currently valid
          const std::vector<DynamicStep> steps =
              random_dynamic_steps(engine.graph(), 1, rng());
          if (steps.empty()) continue;
          apply_one(engine, steps[0].u, steps[0].v, steps[0].inserting);
          break;
        }
      }
      const std::uint64_t before = decompositions();
      ASSERT_EQ(cold_apgre_scores(engine.graph()), engine.scores());
      cold += decompositions() - before;
    }
    expect_scores_near(brandes_bc(engine.graph()), engine.scores());
    if (gc.name == "social_analogue") {
      EXPECT_GT(engine.stats().local_inserts + engine.stats().local_deletes,
                10u);
      EXPECT_GT(engine.stats().batch_downgrades, 10u);
    }
    EXPECT_EQ(decompositions() - after_init - cold,
              engine.stats().structural_resolves)
        << "only structural resolves may re-decompose";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTrajectory,
                         ::testing::Values(7, 17, 27));

}  // namespace
}  // namespace apgre
