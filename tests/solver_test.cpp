// Session-style Solver, the algorithm registry, and the Status-based
// options validation (bc/bc.hpp): decomposition reuse across solve() calls,
// byte-identical scores vs the one-shot entry point, registry round-trips,
// and the no-throw invalid-options contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "bc/incremental.hpp"
#include "bcc/queries.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

CsrGraph skewed_graph() {
  CsrGraph g = barabasi_albert(120, 3, 7);
  g = attach_communities(g, 12, 6, 8);
  return attach_pendants(g, 40, 9);
}

std::uint64_t decompositions() {
  return metrics().counter("bcc.decompositions").value();
}

/// Options pinned to one scheduler worker. Scores are bitwise
/// reproducible at a fixed worker count; one worker also keeps the
/// comparisons below independent of the machine's core count.
BcOptions pinned_options() {
  BcOptions opts;
  opts.threads = 1;
  return opts;
}

/// A private 4-worker pool, whatever the machine's core count.
BcOptions four_workers() {
  BcOptions opts;
  opts.scheduler.threads = 4;
  return opts;
}

std::vector<double> brandes_scores(const CsrGraph& g) {
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  return betweenness(g, serial).scores;
}

TEST(Solver, ScoresMatchOneShotBetweennessExactly) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  const BcOptions opts = pinned_options();
  const BcResult session = solver.solve(opts);
  const BcResult oneshot = betweenness(g, opts);
  ASSERT_TRUE(session.status.ok());
  ASSERT_TRUE(oneshot.status.ok());
  // Same code path, same accumulation order: bitwise equality, not
  // tolerance comparison.
  EXPECT_EQ(session.scores, oneshot.scores);
}

TEST(Solver, ReusesDecompositionAcrossSolves) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  EXPECT_EQ(solver.decomposition(), nullptr);

  const std::uint64_t before = decompositions();
  const BcOptions opts = pinned_options();  // bitwise comparison below
  const BcResult first = solver.solve(opts);
  const Decomposition* dec = solver.decomposition();
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(decompositions(), before + 1);
  EXPECT_GT(first.apgre_stats.partition_seconds, 0.0);

  const BcResult second = solver.solve(opts);
  EXPECT_EQ(decompositions(), before + 1) << "cache hit must not re-decompose";
  EXPECT_EQ(solver.decomposition(), dec) << "cached decomposition is stable";
  // The cache hit reports zero decomposition/reach time by contract.
  EXPECT_EQ(second.apgre_stats.partition_seconds, 0.0);
  EXPECT_EQ(second.apgre_stats.reach_seconds, 0.0);
  EXPECT_EQ(first.scores, second.scores);
}

TEST(Solver, ScoringOnlyKnobsKeepTheCache) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  solver.solve();
  const std::uint64_t after_first = decompositions();

  BcOptions tuned;
  tuned.scheduler.threads = 2;
  const BcResult r = solver.solve(tuned);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(decompositions(), after_first);
}

TEST(Solver, ChangedPartitionOptionsRedecompose) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  solver.solve();
  const std::uint64_t after_first = decompositions();

  BcOptions no_pendants;
  no_pendants.apgre.partition.total_redundancy = false;
  const BcResult r = solver.solve(no_pendants);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(decompositions(), after_first + 1);
  EXPECT_EQ(r.apgre_stats.num_pendants_removed, 0u);
  EXPECT_EQ(r.apgre_stats.peeled_vertices, 0u) << "no gamma, no peel";

  // Scores stay correct after the re-decomposition.
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(g, serial).scores, r.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

TEST(Solver, NonApgreAlgorithmsPassThrough) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const BcResult r = solver.solve(serial);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(solver.decomposition(), nullptr);
  EXPECT_EQ(r.scores, betweenness(g, serial).scores);
}

// BcOptions::threads alone sizes the solve's scheduler: one worker means
// APGRE runs inline on the caller, not on the machine-sized shared pool.
TEST(Solver, ThreadsAloneCapsTheApgreScheduler) {
  const CsrGraph g = skewed_graph();
  BcOptions opts;
  opts.threads = 1;
  Gauge& workers = metrics().gauge("sched.workers");
  workers.set(0.0);
  const BcResult r = Solver(g).solve(opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(workers.value(), 1.0);

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  EXPECT_TRUE(compare_scores(betweenness(g, serial).scores, r.scores).ok);
}

TEST(Solver, TrackedSolveMatchesUntrackedScores) {
  const CsrGraph g = skewed_graph();
  Solver tracked(g);
  tracked.enable_contribution_tracking();
  const BcResult r = tracked.solve(pinned_options());
  ASSERT_TRUE(r.status.ok());

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(g, serial).scores, r.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex << " expected "
                      << cmp.expected_score << " actual " << cmp.actual_score;
}

// Every root batch sums into its own buffer and the buffers merge in a
// fixed order, so at a fixed worker count the scores do not depend on
// which worker ran which batch — nor on whether the session tracks.
TEST(Solver, FourWorkerScoresAreBitwiseReproducible) {
  const CsrGraph g = testing::dominant_block_graph();
  const BcResult first = betweenness(g, four_workers());
  const BcResult second = betweenness(g, four_workers());
  Solver tracked(g);
  tracked.enable_contribution_tracking();
  const BcResult stored = tracked.solve(four_workers());
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  ASSERT_TRUE(stored.status.ok());
  ASSERT_GT(first.apgre_stats.num_batch_tasks, 0u);
  EXPECT_EQ(first.scores, second.scores);
  EXPECT_EQ(first.scores, stored.scores);
}

// The coarse baseline sums its per-chunk buffers in chunk order, so it is
// reproducible too, whichever worker ran which chunk. (On the dominant-block
// graph even per-slot buffers happen to round alike; on this 600-vertex
// Barabasi-Albert graph they do not.)
TEST(Solver, FourWorkerCoarseScoresAreBitwiseReproducible) {
  const CsrGraph g = testing::graph_family(9, /*tiny=*/false)[4].graph;
  BcOptions opts = four_workers();
  opts.algorithm = Algorithm::kCoarse;
  const BcResult first = betweenness(g, opts);
  ASSERT_TRUE(first.status.ok());
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(betweenness(g, opts).scores, first.scores);
  }
}

// A local batch into the block that dominates the scoring cost re-scores
// it as root batches on the store's 4-worker pool. The pieces merge in a
// fixed order, so two identical runs agree bit for bit.
TEST(Solver, LocalBatchIntoTheDominantBlockRunsOnThePool) {
  const CsrGraph g = testing::dominant_block_graph();
  // Vertices 0..89 form the clique; it stays biconnected without 3-7.
  const CsrGraph cut = with_edge_removed(g, 3, 7);
  Counter& tasks = metrics().counter("sched.tasks");
  const auto run = [&] {
    Solver solver(g);
    solver.enable_contribution_tracking();
    EXPECT_TRUE(solver.solve(four_workers()).status.ok());
    const std::uint64_t dec_before = decompositions();
    const std::uint64_t tasks_before = tasks.value();
    EXPECT_EQ(
        solver.apply_local_batch(cut, {EdgeOp{3, 7, /*insert=*/false}}), 1u);
    EXPECT_GT(tasks.value(), tasks_before + 1);
    EXPECT_EQ(decompositions(), dec_before);
    const std::vector<double>* tracked = solver.tracked_scores();
    EXPECT_NE(tracked, nullptr);
    return tracked != nullptr ? *tracked : std::vector<double>{};
  };
  const std::vector<double> first = run();
  const std::vector<double> second = run();
  EXPECT_EQ(first, second);
  const ScoreComparison cmp = compare_scores(brandes_scores(cut), first);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

// The store re-scores with the worker count of the solve that built it:
// an engine pinned to one worker stays on one worker for local batches.
TEST(Solver, OneWorkerEngineReScoresOnOneWorker) {
  BcOptions opts;
  opts.threads = 1;
  IncrementalBc engine(testing::dominant_block_graph(), opts);
  Gauge& workers = metrics().gauge("sched.workers");
  workers.set(0.0);
  const BatchStats batch =
      engine.apply_batch(UpdateRequest{{EdgeOp{3, 7, /*insert=*/false}}});
  EXPECT_EQ(batch.blocks_resolved, 1u);
  EXPECT_EQ(workers.value(), 1.0);
  const ScoreComparison cmp =
      compare_scores(brandes_scores(engine.graph()), engine.scores());
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

TEST(Solver, TrackedResolveServesStoredScores) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  solver.enable_contribution_tracking();
  const BcOptions opts = pinned_options();
  const BcResult first = solver.solve(opts);
  ASSERT_TRUE(first.status.ok());

  const std::uint64_t reuses_before =
      metrics().counter("bc.solver.score_reuses").value();
  const std::uint64_t dec_before = decompositions();
  const BcResult second = solver.solve(opts);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(metrics().counter("bc.solver.score_reuses").value(),
            reuses_before + 1)
      << "a warm tracked solve must serve the contribution store";
  EXPECT_EQ(decompositions(), dec_before);
  EXPECT_EQ(first.scores, second.scores);
}

TEST(Solver, ApplyLocalUpdateMatchesFreshSolve) {
  // Two cycles sharing AP 0: C6 {0..5} and C4 {0,6,7,8}.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
          {0, 6}, {6, 7}, {7, 8}, {8, 0}});
  Solver solver(g);
  solver.enable_contribution_tracking();
  const BcOptions opts = pinned_options();
  ASSERT_TRUE(solver.solve(opts).status.ok());
  const std::uint64_t dec_before = decompositions();
  const std::uint64_t patches_before =
      metrics().counter("bc.solver.local_recomputes").value();

  // Chord 1-3 inside the C6 block, then delete it again: both directions
  // of the localized patch, each checked against a fresh static solve.
  // The oracle runs the serial kernel so it cannot itself decompose and
  // muddy the counter pin below.
  BcOptions oracle = opts;
  oracle.algorithm = Algorithm::kBrandesSerial;
  const CsrGraph with_chord = with_edge_inserted(g, 1, 3);
  ASSERT_EQ(
      solver.apply_local_batch(with_chord, {EdgeOp{1, 3, /*insert=*/true}}),
      1u);
  const BcResult after_insert = solver.solve(opts);
  ASSERT_TRUE(after_insert.status.ok());
  ScoreComparison cmp = compare_scores(betweenness(with_chord, oracle).scores,
                                       after_insert.scores);
  EXPECT_TRUE(cmp.ok) << "insert: worst vertex " << cmp.worst_vertex;

  const CsrGraph restored = with_edge_removed(with_chord, 1, 3);
  ASSERT_EQ(
      solver.apply_local_batch(restored, {EdgeOp{1, 3, /*insert=*/false}}),
      1u);
  const BcResult after_delete = solver.solve(opts);
  ASSERT_TRUE(after_delete.status.ok());
  cmp = compare_scores(betweenness(restored, oracle).scores,
                       after_delete.scores);
  EXPECT_TRUE(cmp.ok) << "delete: worst vertex " << cmp.worst_vertex;

  EXPECT_EQ(decompositions(), dec_before)
      << "localized patches must not re-decompose";
  EXPECT_EQ(metrics().counter("bc.solver.local_recomputes").value(),
            patches_before + 2);
}

TEST(Solver, ApplyLocalUpdateWithoutStoreFallsBackToRebind) {
  const CsrGraph g = cycle(6);
  Solver solver(g);  // tracking never enabled
  ASSERT_TRUE(solver.solve().status.ok());
  const CsrGraph with_chord = with_edge_inserted(g, 0, 2);
  EXPECT_EQ(
      solver.apply_local_batch(with_chord, {EdgeOp{0, 2, /*insert=*/true}}),
      0u);
  // The fallback rebinds, so the next solve is correct on the new graph.
  const BcResult r = solver.solve();
  ASSERT_TRUE(r.status.ok());
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(with_chord, serial).scores, r.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

// ---- 2-core peel sessions ------------------------------------------------

TEST(Solver, PeelKnobKeysTheDecompositionCache) {
  // total_redundancy is the peel's switch: off, the solve neither derives
  // pendants nor peels; back on, it re-decomposes the peeled core.
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  BcOptions off = pinned_options();
  off.apgre.partition.total_redundancy = false;
  ASSERT_TRUE(solver.solve(off).status.ok());
  EXPECT_EQ(solver.peel(), nullptr) << "no peel without total_redundancy";
  const std::uint64_t after_off = decompositions();

  const BcOptions peeled = pinned_options();
  const BcResult first_on = solver.solve(peeled);
  ASSERT_TRUE(first_on.status.ok());
  EXPECT_EQ(decompositions(), after_off + 1)
      << "flipping total_redundancy must re-decompose (different reduction)";
  ASSERT_NE(solver.peel(), nullptr);
  EXPECT_GT(first_on.apgre_stats.peeled_vertices, 0u);

  const BcResult second_on = solver.solve(peeled);
  EXPECT_EQ(decompositions(), after_off + 1) << "peeled cache hit";
  EXPECT_EQ(first_on.scores, second_on.scores);

  // Flipping back drops the peel the next decomposition no longer uses.
  ASSERT_TRUE(solver.solve(off).status.ok());
  EXPECT_EQ(solver.peel(), nullptr);

  // Peeled and unpeeled sessions agree with the serial oracle.
  BcOptions serial = pinned_options();
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(g, serial).scores, first_on.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex << " expected "
                      << cmp.expected_score << " actual " << cmp.actual_score;
}

TEST(Solver, AdoptPeelReusesAndInvalidates) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  const BcOptions peeled = pinned_options();
  ASSERT_TRUE(solver.solve(peeled).status.ok());
  const std::shared_ptr<const PeelResult> own = solver.peel();
  ASSERT_NE(own, nullptr);
  const Decomposition* dec = solver.decomposition();

  // Re-adopting the pointer already held keeps the cache.
  solver.adopt_peel(own);
  EXPECT_EQ(solver.decomposition(), dec);

  // A different peel of the same graph invalidates it (different object,
  // so the cached reduction can no longer be trusted).
  solver.adopt_peel(std::make_shared<const PeelResult>(two_core_peel(g)));
  EXPECT_EQ(solver.decomposition(), nullptr);
  const BcResult r = solver.solve(peeled);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.apgre_stats.peeled_vertices, 0u);
}

TEST(Solver, ForestIncidentLocalUpdateFallsBackToRebind) {
  // Cycle core with a hanging chain 0-6-7: updates touching the chain must
  // refuse the localized patch (the cached decomposition excludes the
  // fringe) and rebind so the next solve re-peels.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {6, 7}});
  Solver solver(g);
  solver.enable_contribution_tracking();
  const BcOptions peeled = pinned_options();
  ASSERT_TRUE(solver.solve(peeled).status.ok());
  ASSERT_NE(solver.peel(), nullptr);

  // The chord 6-2 pulls the chain into the 2-core: defensive guard path.
  const CsrGraph with_chord = with_edge_inserted(g, 6, 2);
  EXPECT_EQ(
      solver.apply_local_batch(with_chord, {EdgeOp{6, 2, /*insert=*/true}}),
      0u);
  const BcResult r = solver.solve(peeled);
  ASSERT_TRUE(r.status.ok());
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(with_chord, serial).scores, r.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

TEST(Solver, TrackedPeeledStoreStaysExactThroughCoreLocalUpdates) {
  // Two cycles sharing AP 0 plus a peeled fringe: chain 0-9-10, pendant 11
  // off vertex 2. Core-core chords patch the tracked store of the peeled
  // core; scores must track a fresh static solve each time.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
           {0, 6}, {6, 7}, {7, 8}, {8, 0}, {0, 9}, {9, 10}, {2, 11}});
  Solver solver(g);
  solver.enable_contribution_tracking();
  const BcOptions peeled = pinned_options();
  ASSERT_TRUE(solver.solve(peeled).status.ok());
  const std::uint64_t dec_before = decompositions();

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const CsrGraph with_chord = with_edge_inserted(g, 1, 3);
  ASSERT_EQ(
      solver.apply_local_batch(with_chord, {EdgeOp{1, 3, /*insert=*/true}}),
      1u);
  ScoreComparison cmp = compare_scores(betweenness(with_chord, serial).scores,
                                       solver.solve(peeled).scores);
  EXPECT_TRUE(cmp.ok) << "insert: worst vertex " << cmp.worst_vertex
                      << " expected " << cmp.expected_score << " actual "
                      << cmp.actual_score;

  const CsrGraph restored = with_edge_removed(with_chord, 1, 3);
  ASSERT_EQ(
      solver.apply_local_batch(restored, {EdgeOp{1, 3, /*insert=*/false}}),
      1u);
  cmp = compare_scores(betweenness(restored, serial).scores,
                       solver.solve(peeled).scores);
  EXPECT_TRUE(cmp.ok) << "delete: worst vertex " << cmp.worst_vertex;
  EXPECT_EQ(decompositions(), dec_before)
      << "core-core patches must not re-decompose a peeled session";
}

// ---- Routing through the membership index ---------------------------------

/// K5 on {0..4} with a triangle at each of the articulation points 0, 1
/// and 2 ({0,5,6}, {1,7,8}, {2,9,10}): the K5 chord 1-2 joins two APs.
CsrGraph k5_with_triangles() {
  return CsrGraph::undirected_from_edges(
      11, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
           {2, 3}, {2, 4}, {3, 4}, {0, 5}, {5, 6}, {6, 0}, {1, 7},
           {7, 8}, {8, 1}, {2, 9}, {9, 10}, {10, 2}});
}

/// Index of the first sub-graph holding global vertex u — or, given v, of
/// the one storing the arc u -> v; subgraphs.size() when there is none.
std::size_t subgraph_of(const Decomposition& dec, Vertex u,
                        Vertex v = kInvalidVertex) {
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    const auto local = [&sg](Vertex w) {
      const auto it = std::find(sg.to_global.begin(), sg.to_global.end(), w);
      return it == sg.to_global.end()
                 ? kInvalidVertex
                 : static_cast<Vertex>(it - sg.to_global.begin());
    };
    const Vertex lu = local(u);
    if (lu == kInvalidVertex) continue;
    if (v == kInvalidVertex) return sgi;
    const Vertex lv = local(v);
    if (lv != kInvalidVertex && has_arc(sg.graph, lu, lv)) return sgi;
  }
  return dec.subgraphs.size();
}

TEST(Solver, LocalBatchRoutesApChordToItsStoringSubgraph) {
  const CsrGraph g = k5_with_triangles();
  Solver solver(g);
  solver.enable_contribution_tracking();
  ASSERT_TRUE(solver.solve(pinned_options()).status.ok());
  const Decomposition& dec = *solver.decomposition();
  // Each endpoint also sits in a triangle's sub-graph, numbered before the
  // K5's: routing must skip both to reach the one storing the arc.
  const std::size_t stored = subgraph_of(dec, 1, 2);
  ASSERT_LT(stored, dec.subgraphs.size());
  ASSERT_LT(subgraph_of(dec, 1), stored);
  ASSERT_LT(subgraph_of(dec, 2), stored);
  const std::uint64_t dec_before = decompositions();

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  // Deleting the chord leaves K5 minus an edge biconnected: local. The
  // re-insert is a chord inside one block too, so the block-cut tree and
  // every reach count survive it (classify_batch grades an AP-endpoint
  // insert structural only because it cannot tell in general).
  const CsrGraph cut = with_edge_removed(g, 1, 2);
  ASSERT_EQ(solver.apply_local_batch(cut, {EdgeOp{1, 2, /*insert=*/false}}),
            1u);
  EXPECT_EQ(subgraph_of(dec, 1, 2), dec.subgraphs.size())
      << "the arc must leave the sub-graph that stored it";
  ScoreComparison cmp = compare_scores(betweenness(cut, serial).scores,
                                       *solver.tracked_scores());
  EXPECT_TRUE(cmp.ok) << "delete: worst vertex " << cmp.worst_vertex;

  const CsrGraph restored = with_edge_inserted(cut, 2, 1);
  ASSERT_EQ(
      solver.apply_local_batch(restored, {EdgeOp{2, 1, /*insert=*/true}}),
      1u);
  EXPECT_EQ(subgraph_of(dec, 1, 2), stored);
  cmp = compare_scores(betweenness(restored, serial).scores,
                       *solver.tracked_scores());
  EXPECT_TRUE(cmp.ok) << "re-insert: worst vertex " << cmp.worst_vertex;
  EXPECT_EQ(decompositions(), dec_before) << "both batches must stay local";
}

TEST(Solver, LocalBatchAfterRedecompositionRoutesThroughAFreshIndex) {
  const CsrGraph g = k5_with_triangles();
  Solver solver(g);
  solver.enable_contribution_tracking();
  const BcOptions opts = pinned_options();
  ASSERT_TRUE(solver.solve(opts).status.ok());
  const std::size_t stored_before = subgraph_of(*solver.decomposition(), 1, 2);

  // Structural: deleting 9-10 turns a triangle into two bridges, which
  // fold into the K5's sub-graph and renumber it — an index left over from
  // the old decomposition would route the next batch to the wrong one.
  const CsrGraph split = with_edge_removed(g, 9, 10);
  solver.rebind(split);
  ASSERT_TRUE(solver.solve(opts).status.ok());
  const Decomposition& dec = *solver.decomposition();
  ASSERT_NE(subgraph_of(dec, 1, 2), stored_before);
  const std::uint64_t dec_before = decompositions();

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const CsrGraph cut = with_edge_removed(split, 1, 2);
  ASSERT_EQ(solver.apply_local_batch(cut, {EdgeOp{1, 2, /*insert=*/false}}),
            1u);
  EXPECT_EQ(decompositions(), dec_before);
  EXPECT_EQ(subgraph_of(dec, 1, 2), dec.subgraphs.size());
  const ScoreComparison cmp = compare_scores(betweenness(cut, serial).scores,
                                             *solver.tracked_scores());
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

// The scorer splits a sub-graph into root batches when it carries at least
// 1/(2 * workers) of the decomposition's summed cost. The Solver keeps
// that sum current across local batches: after deletes shrink the big
// block, a batch into the small one crosses the threshold and runs on the
// pool, where it ran inline before.
TEST(Solver, LocalBatchesSplitAgainstTheCurrentTotalCost) {
  // K10 on 0..9 and K5 on 9..13, sharing articulation point 9.
  EdgeList edges;
  for (Vertex u = 0; u < 10; ++u) {
    for (Vertex v = u + 1; v < 10; ++v) edges.push_back({u, v});
  }
  for (Vertex u = 9; u < 14; ++u) {
    for (Vertex v = u + 1; v < 14; ++v) edges.push_back({u, v});
  }
  CsrGraph g = CsrGraph::undirected_from_edges(14, std::move(edges));
  Solver solver(g);
  solver.enable_contribution_tracking();
  ASSERT_TRUE(solver.solve(four_workers()).status.ok());
  const Decomposition& dec = *solver.decomposition();
  const Subgraph& small = dec.subgraphs[subgraph_of(dec, 10)];
  const auto total_cost = [&dec] {
    std::uint64_t total = 0;
    for (const Subgraph& sg : dec.subgraphs) total += apgre_subgraph_cost(sg);
    return total;
  };
  constexpr std::uint64_t kTwiceWorkers = 8;
  Counter& tasks = metrics().counter("sched.tasks");
  // Applies one local batch; returns the scheduler tasks its re-score ran.
  const auto apply = [&](const std::vector<EdgeOp>& ops) {
    EXPECT_FALSE(BlockCutQueries(g).classify_batch(ops).structural);
    apply_edge_ops_in_place(g, ops);
    const std::uint64_t before = tasks.value();
    EXPECT_EQ(solver.apply_local_batch(g, ops), 1u);
    return tasks.value() - before;
  };

  // The small block's share is under the threshold: scored inline.
  EXPECT_EQ(apply({EdgeOp{10, 11, /*insert=*/false}}), 0u);
  ASSERT_LT(kTwiceWorkers * apgre_subgraph_cost(small), total_cost());

  // Eleven deletes leave K10 biconnected and shrink its cost.
  std::vector<EdgeOp> shrink;
  for (const Edge e : {Edge{0, 1}, Edge{2, 3}, Edge{4, 5}, Edge{6, 7},
                       Edge{0, 2}, Edge{1, 3}, Edge{4, 6}, Edge{5, 7},
                       Edge{0, 4}, Edge{1, 5}, Edge{8, 1}}) {
    shrink.push_back(EdgeOp{e.src, e.dst, /*insert=*/false});
  }
  apply(shrink);

  // Re-inserting the small block's chord now crosses the threshold.
  const std::uint64_t ran = apply({EdgeOp{10, 11, /*insert=*/true}});
  ASSERT_GE(kTwiceWorkers * apgre_subgraph_cost(small), total_cost());
  EXPECT_GT(ran, 1u);
  const ScoreComparison cmp =
      compare_scores(brandes_scores(g), *solver.tracked_scores());
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
}

/// The top sub-graph by decompose()'s criterion, by a full scan: most
/// arcs, then most vertices, then the first index.
std::size_t first_maximum(const Decomposition& dec) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < dec.subgraphs.size(); ++i) {
    const Subgraph& sg = dec.subgraphs[i];
    const Subgraph& cur = dec.subgraphs[best];
    if (sg.num_arcs() > cur.num_arcs() ||
        (sg.num_arcs() == cur.num_arcs() &&
         sg.num_vertices() > cur.num_vertices())) {
      best = i;
    }
  }
  return best;
}

/// A seeded trajectory of local batches over a chain of four blocks with
/// 6, 5, 6 and 5 vertices, each block a clique to start with, sharing
/// articulation points 5, 9 and 14. Each batch toggles one random edge in
/// each of two or three random blocks, drawn from the toggles that
/// classify_batch grades local. After every batch the batch's sub-graphs
/// must be reported re-scored, the top sub-graph must be the full scan's
/// first maximum, and the scores exact. Returns how often a batch grew
/// the top, shrank it, and left another sub-graph tied with it on arcs,
/// so the caller can check that the trajectory reached those cases.
struct TopEvents {
  int grew = 0;
  int shrank = 0;
  int tied = 0;
};

TopEvents multi_block_trajectory(std::uint64_t seed) {
  const std::vector<std::vector<Vertex>> blocks = {
      {0, 1, 2, 3, 4, 5}, {5, 6, 7, 8, 9}, {9, 10, 11, 12, 13, 14},
      {14, 15, 16, 17, 18}};
  EdgeList edges;
  for (const std::vector<Vertex>& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      for (std::size_t j = i + 1; j < block.size(); ++j) {
        edges.push_back({block[i], block[j]});
      }
    }
  }
  CsrGraph g = CsrGraph::undirected_from_edges(19, std::move(edges));
  Solver solver(g);
  solver.enable_contribution_tracking();
  EXPECT_TRUE(solver.solve(pinned_options()).status.ok());
  const Decomposition& dec = *solver.decomposition();
  EXPECT_EQ(dec.subgraphs.size(), blocks.size());

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  SplitMix64 rng(seed);
  TopEvents events;
  for (int b = 0; b < 60; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    // Every toggle that classifies local on its own, per block. Blocks
    // share no edge, so toggles in distinct blocks stay local together.
    const BlockCutQueries queries(g);
    std::vector<std::vector<EdgeOp>> candidates(blocks.size());
    for (std::size_t block = 0; block < blocks.size(); ++block) {
      const std::vector<Vertex>& members = blocks[block];
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          const EdgeOp toggle{members[i], members[j],
                              !has_arc(g, members[i], members[j])};
          if (!queries.classify_batch({toggle}).structural) {
            candidates[block].push_back(toggle);
          }
        }
      }
    }
    std::vector<EdgeOp> ops;
    std::vector<std::size_t> picked;
    const std::size_t want = 2 + rng.next() % 2;
    for (int guard = 0; picked.size() < want && guard < 100; ++guard) {
      const std::size_t block = rng.next() % blocks.size();
      if (candidates[block].empty() ||
          std::find(picked.begin(), picked.end(), block) != picked.end()) {
        continue;
      }
      picked.push_back(block);
      ops.push_back(candidates[block][rng.next() % candidates[block].size()]);
    }
    EXPECT_EQ(ops.size(), want);
    EXPECT_FALSE(queries.classify_batch(ops).structural);

    std::vector<std::size_t> expected;
    for (const std::size_t block : picked) {
      expected.push_back(subgraph_of(dec, blocks[block][1]));  // not an AP
    }
    std::sort(expected.begin(), expected.end());

    const std::size_t top = dec.top_subgraph;
    const EdgeId top_arcs = dec.subgraphs[top].num_arcs();
    apply_edge_ops_in_place(g, ops);
    std::vector<std::size_t> rescored;
    EXPECT_EQ(solver.apply_local_batch(g, ops, &rescored), ops.size());
    EXPECT_EQ(rescored, expected);
    EXPECT_EQ(dec.top_subgraph, first_maximum(dec));
    const ScoreComparison cmp = compare_scores(betweenness(g, serial).scores,
                                               *solver.tracked_scores());
    EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;

    const EdgeId arcs_now = dec.subgraphs[top].num_arcs();
    events.grew += arcs_now > top_arcs ? 1 : 0;
    events.shrank += arcs_now < top_arcs ? 1 : 0;
    const EdgeId best = dec.subgraphs[dec.top_subgraph].num_arcs();
    for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
      if (i != dec.top_subgraph && dec.subgraphs[i].num_arcs() == best) {
        ++events.tied;
        break;
      }
    }
  }
  return events;
}

TEST(Solver, LocalBatchesKeepTheTopSubgraphAndReportWhatTheyRescored) {
  // Two K5 blocks sharing articulation point 0: {0..4} and {0, 5..8}.
  EdgeList edges;
  for (const Vertex base : {Vertex{0}, Vertex{4}}) {
    std::vector<Vertex> members = {0};
    for (Vertex k = 1; k <= 4; ++k) members.push_back(base + k);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        edges.push_back({members[i], members[j]});
      }
    }
  }
  CsrGraph g = CsrGraph::undirected_from_edges(9, std::move(edges));
  Solver solver(g);
  solver.enable_contribution_tracking();
  ASSERT_TRUE(solver.solve(pinned_options()).status.ok());
  const Decomposition& dec = *solver.decomposition();
  ASSERT_EQ(dec.top_subgraph, first_maximum(dec));
  // The blocks tie, so the top is the one with the lower index: `first`.
  const std::size_t left = subgraph_of(dec, 1);
  const std::size_t right = subgraph_of(dec, 5);
  ASSERT_NE(left, right);
  const std::size_t first = dec.top_subgraph;
  const std::size_t second = first == left ? right : left;
  const Vertex in_first = first == left ? 1 : 5;
  const Vertex in_second = first == left ? 5 : 1;

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  // Each step toggles one chord of one block and must report that block's
  // sub-graph as re-scored. The deletes each demote the current top:
  // `second` takes over, then a tie hands it back to `first`. The
  // re-inserts hit the other sub-graph, which must overtake the top: by
  // outgrowing it, then by tying it from a lower index.
  const struct {
    Vertex u;
    bool insert;
    std::size_t rescored;
  } steps[] = {{in_first, false, first},
               {in_second, false, second},
               {in_second, true, second},
               {in_first, true, first}};
  std::vector<std::size_t> rescored;
  for (const auto& step : steps) {
    const EdgeOp op{step.u, step.u + 1, step.insert};
    CsrGraph next = g;
    apply_edge_ops_in_place(next, {op});
    ASSERT_EQ(solver.apply_local_batch(next, {op}, &rescored), 1u);
    g = std::move(next);
    EXPECT_EQ(rescored, std::vector<std::size_t>{step.rescored});
    EXPECT_EQ(dec.top_subgraph, first_maximum(dec));
    const ScoreComparison cmp = compare_scores(betweenness(g, serial).scores,
                                               *solver.tracked_scores());
    EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex;
  }
  EXPECT_EQ(dec.top_subgraph, first);

  // Seeded multi-block batches, some of which touch the top.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TopEvents events = multi_block_trajectory(seed);
    EXPECT_GT(events.grew, 0);
    EXPECT_GT(events.shrank, 0);
    EXPECT_GT(events.tied, 0);
  }
}

TEST(Registry, RoundTripsEveryAlgorithm) {
  EXPECT_EQ(algorithm_registry().size(), 9u);
  for (const AlgorithmInfo& info : algorithm_registry()) {
    EXPECT_EQ(algorithm_from_name(info.name), info.algorithm);
    EXPECT_EQ(algorithm_name(info.algorithm), info.name);
    if (info.alias != nullptr) {
      EXPECT_EQ(algorithm_from_name(info.alias), info.algorithm);
    }
    EXPECT_NE(info.kernel, nullptr);
    EXPECT_EQ(&algorithm_info(info.algorithm), &info);
  }
}

TEST(Registry, CapabilityFlagsMatchTheFamily) {
  EXPECT_TRUE(algorithm_info(Algorithm::kNaive).test_only);
  EXPECT_FALSE(algorithm_info(Algorithm::kNaive).comparison);
  EXPECT_TRUE(algorithm_info(Algorithm::kApgre).exact);
  EXPECT_TRUE(algorithm_info(Algorithm::kApgre).comparison);
  EXPECT_FALSE(algorithm_info(Algorithm::kSampling).exact);
  // The paper's Tables 2/3 compare exactly seven algorithms.
  int comparison = 0;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.comparison) {
      ++comparison;
      EXPECT_TRUE(info.exact) << info.name;
    }
  }
  EXPECT_EQ(comparison, 7);
}

TEST(Registry, RejectsValuesOutsideTheTable) {
  EXPECT_THROW(algorithm_info(static_cast<Algorithm>(999)), OptionError);
  EXPECT_THROW(algorithm_from_name("bogus"), OptionError);
}

TEST(ValidateOptions, AcceptsDefaults) {
  EXPECT_TRUE(validate_options(BcOptions{}).ok());
}

TEST(ValidateOptions, RejectsBadValuesWithoutThrowing) {
  const CsrGraph g = cycle(8);

  BcOptions bad_threads;
  bad_threads.threads = -2;
  EXPECT_EQ(validate_options(bad_threads).code, StatusCode::kInvalidOption);

  BcOptions bad_sched_threads;
  bad_sched_threads.scheduler.threads = -4;
  EXPECT_EQ(validate_options(bad_sched_threads).code,
            StatusCode::kInvalidOption);

  // Worker counts above the cap are rejected before any pool is built.
  BcOptions max_threads;
  max_threads.threads = kMaxSolveThreads;
  max_threads.scheduler.threads = kMaxSolveThreads;
  EXPECT_TRUE(validate_options(max_threads).ok());
  BcOptions too_many_threads;
  too_many_threads.threads = kMaxSolveThreads + 1;
  EXPECT_EQ(validate_options(too_many_threads).code,
            StatusCode::kInvalidOption);
  BcOptions too_many_sched_threads;
  too_many_sched_threads.scheduler.threads = 1 << 30;
  EXPECT_EQ(validate_options(too_many_sched_threads).code,
            StatusCode::kInvalidOption);

  BcOptions bad_algorithm;
  bad_algorithm.algorithm = static_cast<Algorithm>(999);
  EXPECT_EQ(validate_options(bad_algorithm).code, StatusCode::kInvalidOption);

  // betweenness / Solver::solve report the same Status instead of throwing.
  const BcResult direct = betweenness(g, bad_sched_threads);
  EXPECT_EQ(direct.status.code, StatusCode::kInvalidOption);
  EXPECT_FALSE(direct.status.message.empty());
  EXPECT_TRUE(direct.scores.empty());

  Solver solver(g);
  const BcResult via_solver = solver.solve(bad_algorithm);
  EXPECT_EQ(via_solver.status.code, StatusCode::kInvalidOption);
  EXPECT_EQ(solver.decomposition(), nullptr)
      << "rejected options must not touch the cache";
}

}  // namespace
}  // namespace apgre
