// Session-style Solver, the algorithm registry, and the Status-based
// options validation (bc/bc.hpp): decomposition reuse across solve() calls,
// byte-identical scores vs the one-shot entry point, registry round-trips,
// and the no-throw invalid-options contract.
#include <gtest/gtest.h>

#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "support/metrics.hpp"

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

/// Options pinned to one scheduler worker. The bitwise-equality tests
/// below need a machine-independent accumulation order: with several
/// workers, which tasks land on which worker (and so the FP merge order)
/// depends on steal timing, which can differ between two runs under load.
BcOptions pinned_options() {
  BcOptions opts;
  opts.threads = 1;
  return opts;
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
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  const BcOptions opts = pinned_options();
  ASSERT_TRUE(solver.solve(opts).status.ok());
  EXPECT_EQ(solver.peel(), nullptr) << "no peel without the knob";
  const std::uint64_t after_off = decompositions();

  BcOptions peeled = opts;
  peeled.apgre.partition.peel_two_core = true;
  const BcResult first_on = solver.solve(peeled);
  ASSERT_TRUE(first_on.status.ok());
  EXPECT_EQ(decompositions(), after_off + 1)
      << "flipping the peel knob must re-decompose (different reduction)";
  ASSERT_NE(solver.peel(), nullptr);
  EXPECT_GT(first_on.apgre_stats.peeled_vertices, 0u);

  const BcResult second_on = solver.solve(peeled);
  EXPECT_EQ(decompositions(), after_off + 1) << "peeled cache hit";
  EXPECT_EQ(first_on.scores, second_on.scores);

  // Peeled and unpeeled sessions agree with the serial oracle.
  BcOptions serial = opts;
  serial.algorithm = Algorithm::kBrandesSerial;
  const ScoreComparison cmp =
      compare_scores(betweenness(g, serial).scores, first_on.scores);
  EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex << " expected "
                      << cmp.expected_score << " actual " << cmp.actual_score;
}

TEST(Solver, AdoptPeelReusesAndInvalidates) {
  const CsrGraph g = skewed_graph();
  Solver solver(g);
  BcOptions peeled = pinned_options();
  peeled.apgre.partition.peel_two_core = true;
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
  // refuse the localized patch (the cached core reduction excludes the
  // fringe) and rebind so the next solve re-peels.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {6, 7}});
  Solver solver(g);
  solver.enable_contribution_tracking();
  BcOptions peeled = pinned_options();
  peeled.apgre.partition.peel_two_core = true;
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
  // off vertex 2. Core-core chords splice the tracked store AND the cached
  // core reduction; scores must track a fresh static solve each time.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
           {0, 6}, {6, 7}, {7, 8}, {8, 0}, {0, 9}, {9, 10}, {2, 11}});
  Solver solver(g);
  solver.enable_contribution_tracking();
  BcOptions peeled = pinned_options();
  peeled.apgre.partition.peel_two_core = true;
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

TEST(Registry, RoundTripsEveryAlgorithm) {
  EXPECT_EQ(algorithm_registry().size(), 10u);
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
    if (info.comparison) ++comparison;
    if (info.comparison) EXPECT_TRUE(info.exact) << info.name;
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
