// Cross-algorithm differential oracle.
//
// The library's core claim (bc/bc.hpp) is that every exact algorithm of the
// family computes identical BC scores and differs only in strategy. The
// oracle enforces that claim: it runs a set of algorithms on one graph,
// compares every score vector elementwise against a reference under the
// suite's mixed absolute/relative tolerance, and reports the maximum
// divergence with per-vertex blame (worst vertex, both scores, both vector
// norms) so a failing seed pinpoints the disagreement immediately.
#pragma once

#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "graph/csr.hpp"

namespace apgre {

/// Elementwise comparison verdict between two score vectors.
struct ScoreComparison {
  bool ok = true;
  double max_divergence = 0.0;   ///< max_v |expected - actual|
  double worst_excess = 0.0;     ///< max_v (divergence - tolerance), <= 0 if ok
  Vertex worst_vertex = kInvalidVertex;
  double expected_score = 0.0;   ///< at the worst vertex
  double actual_score = 0.0;     ///< at the worst vertex
  double expected_norm = 0.0;    ///< L2 norm of the expected vector
  double actual_norm = 0.0;      ///< L2 norm of the actual vector
  std::size_t num_violations = 0;
};

/// Compare with tolerance(v) = abs + rel * max(|expected[v]|, |actual[v]|).
/// Asserts equal sizes (use for vectors over the same vertex set).
ScoreComparison compare_scores(const std::vector<double>& expected,
                               const std::vector<double>& actual,
                               double rel = 1e-7, double abs = 1e-6);

struct OracleOptions {
  /// Algorithms under test; empty selects exact_algorithm_set(g).
  std::vector<Algorithm> algorithms;
  /// Every algorithm is diffed against this one.
  Algorithm reference = Algorithm::kBrandesSerial;
  double rel_tolerance = 1e-7;
  double abs_tolerance = 1e-6;
  /// kNaive is O(|V|^3); the default algorithm set only includes it below
  /// this vertex count.
  Vertex max_naive_vertices = 256;
  int threads = 0;
};

struct AlgorithmDivergence {
  Algorithm algorithm;
  ScoreComparison comparison;
};

struct OracleReport {
  Algorithm reference;
  std::vector<AlgorithmDivergence> algorithms;
  bool ok = true;
  double max_divergence = 0.0;  ///< across all algorithms

  /// One line per algorithm: name, max divergence, blame on failure.
  std::string summary() const;
};

/// The exact (score-identical) members of the family for `g`, naive
/// included only when |V| <= max_naive_vertices. kSampling is excluded:
/// it is approximate by design.
std::vector<Algorithm> exact_algorithm_set(const CsrGraph& g,
                                           Vertex max_naive_vertices = 256);

/// Run every selected algorithm on `g` and diff against the reference.
OracleReport differential_check(const CsrGraph& g, const OracleOptions& opts = {});

/// One edge mutation of a dynamic differential run.
struct DynamicStep {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  bool inserting = true;
};

/// Dynamic family: starting from `g`, apply `steps` through DynamicBc and,
/// after every mutation, diff its incrementally maintained scores against
/// the static reference recomputed from scratch on the mutated graph. Each
/// step appears in the report as one AlgorithmDivergence under the kApgre
/// label (steps[i] -> report.algorithms[i]), so summary() still blames the
/// first divergent vertex. Steps must be valid updates (no duplicate
/// inserts, no removals of absent edges, no self-loops) — invalid steps
/// throw Error, same as DynamicBc itself.
OracleReport dynamic_differential_check(const CsrGraph& g,
                                        const std::vector<DynamicStep>& steps,
                                        const OracleOptions& opts = {});

/// Same trajectory check driven through the IncrementalBc engine (localized
/// block re-solves, pendant closed forms, structural-conservative routing)
/// instead of DynamicBc. `engine_options` tunes the engine's APGRE solves;
/// on undirected graphs at default options the engine peels, so the check
/// also covers the structural fallbacks taken when an update touches the
/// peeled forest.
OracleReport incremental_differential_check(
    const CsrGraph& g, const std::vector<DynamicStep>& steps,
    const BcOptions& engine_options, const OracleOptions& opts = {});

/// Generate `count` valid random mutations for `g` (mixed inserts and
/// removals, deterministic in `seed`), reusable as dynamic_differential_check
/// input. Inserts pick currently-absent non-loop edges, removals pick
/// present ones; steps compound (a removed edge may be re-inserted later).
std::vector<DynamicStep> random_dynamic_steps(const CsrGraph& g,
                                              std::size_t count,
                                              std::uint64_t seed);

}  // namespace apgre
