#include "check/oracle.hpp"

#include <cmath>
#include <random>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "bc/incremental.hpp"
#include "check/dynamic.hpp"
#include "support/error.hpp"

namespace apgre {

ScoreComparison compare_scores(const std::vector<double>& expected,
                               const std::vector<double>& actual,
                               double rel, double abs) {
  APGRE_ASSERT_MSG(expected.size() == actual.size(),
                   "score vectors must cover the same vertex set");
  ScoreComparison cmp;
  double expected_sq = 0.0;
  double actual_sq = 0.0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    expected_sq += expected[v] * expected[v];
    actual_sq += actual[v] * actual[v];
    const double divergence = std::fabs(expected[v] - actual[v]);
    const double tolerance =
        abs + rel * std::max(std::fabs(expected[v]), std::fabs(actual[v]));
    const double excess = divergence - tolerance;
    if (divergence > cmp.max_divergence) cmp.max_divergence = divergence;
    if (excess > 0.0) ++cmp.num_violations;
    if (cmp.worst_vertex == kInvalidVertex || excess > cmp.worst_excess) {
      cmp.worst_excess = excess;
      cmp.worst_vertex = static_cast<Vertex>(v);
      cmp.expected_score = expected[v];
      cmp.actual_score = actual[v];
    }
  }
  cmp.expected_norm = std::sqrt(expected_sq);
  cmp.actual_norm = std::sqrt(actual_sq);
  cmp.ok = cmp.num_violations == 0;
  return cmp;
}

std::vector<Algorithm> exact_algorithm_set(const CsrGraph& g,
                                           Vertex max_naive_vertices) {
  // Derived from the registry's capability flags: every exact algorithm,
  // with the O(V^3) test-only oracle gated on graph size.
  std::vector<Algorithm> set;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (!info.exact) continue;
    if (info.test_only && g.num_vertices() > max_naive_vertices) continue;
    set.push_back(info.algorithm);
  }
  return set;
}

namespace {

OracleReport build_report(Algorithm reference,
                          const std::vector<double>& reference_scores,
                          const std::vector<std::pair<Algorithm,
                                                      std::vector<double>>>& runs,
                          double rel, double abs) {
  OracleReport report;
  report.reference = reference;
  for (const auto& [algorithm, scores] : runs) {
    AlgorithmDivergence d{algorithm,
                          compare_scores(reference_scores, scores, rel, abs)};
    report.ok = report.ok && d.comparison.ok;
    report.max_divergence =
        std::max(report.max_divergence, d.comparison.max_divergence);
    report.algorithms.push_back(std::move(d));
  }
  return report;
}

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  for (const AlgorithmDivergence& d : algorithms) {
    const ScoreComparison& c = d.comparison;
    os << algorithm_name(d.algorithm) << " vs " << algorithm_name(reference)
       << ": max divergence " << c.max_divergence;
    if (!c.ok) {
      os << " [FAIL: " << c.num_violations << " vertices over tolerance"
         << "; worst v" << c.worst_vertex << " expected " << c.expected_score
         << " actual " << c.actual_score << "; |expected|=" << c.expected_norm
         << " |actual|=" << c.actual_norm << "]";
    }
    os << "\n";
  }
  return os.str();
}

OracleReport differential_check(const CsrGraph& g, const OracleOptions& opts) {
  std::vector<Algorithm> algorithms = opts.algorithms;
  if (algorithms.empty()) {
    algorithms = exact_algorithm_set(g, opts.max_naive_vertices);
  }

  BcOptions run;
  run.threads = opts.threads;
  run.algorithm = opts.reference;
  const std::vector<double> reference_scores = betweenness(g, run).scores;

  std::vector<std::pair<Algorithm, std::vector<double>>> runs;
  for (Algorithm algorithm : algorithms) {
    if (algorithm == opts.reference) continue;
    run.algorithm = algorithm;
    runs.emplace_back(algorithm, betweenness(g, run).scores);
  }
  return build_report(opts.reference, reference_scores, runs,
                      opts.rel_tolerance, opts.abs_tolerance);
}

OracleReport dynamic_differential_check(const CsrGraph& g,
                                        const std::vector<DynamicStep>& steps,
                                        const OracleOptions& opts) {
  OracleReport report;
  report.reference = opts.reference;

  DynamicBc dynamic(g);
  BcOptions run;
  run.threads = opts.threads;
  run.algorithm = opts.reference;
  for (const DynamicStep& step : steps) {
    step.inserting ? dynamic.insert_edge(step.u, step.v)
                   : dynamic.remove_edge(step.u, step.v);
    // The reference changes per step: recompute from scratch on the
    // mutated graph, so every incremental subtraction/re-addition since
    // the start is checked, not just the last one.
    const std::vector<double> expected =
        betweenness(dynamic.graph(), run).scores;
    AlgorithmDivergence d{Algorithm::kApgre,
                          compare_scores(expected, dynamic.scores(),
                                         opts.rel_tolerance,
                                         opts.abs_tolerance)};
    report.ok = report.ok && d.comparison.ok;
    report.max_divergence =
        std::max(report.max_divergence, d.comparison.max_divergence);
    report.algorithms.push_back(std::move(d));
  }
  return report;
}

OracleReport incremental_differential_check(const CsrGraph& g,
                                            const std::vector<DynamicStep>& steps,
                                            const BcOptions& engine_options,
                                            const OracleOptions& opts) {
  OracleReport report;
  report.reference = opts.reference;

  IncrementalBc engine(g, engine_options);
  BcOptions run;
  run.threads = opts.threads;
  run.algorithm = opts.reference;
  for (const DynamicStep& step : steps) {
    engine.apply_batch(
        UpdateRequest{{EdgeOp{step.u, step.v, step.inserting}}});
    const std::vector<double> expected =
        betweenness(engine.graph(), run).scores;
    AlgorithmDivergence d{Algorithm::kApgre,
                          compare_scores(expected, engine.scores(),
                                         opts.rel_tolerance,
                                         opts.abs_tolerance)};
    report.ok = report.ok && d.comparison.ok;
    report.max_divergence =
        std::max(report.max_divergence, d.comparison.max_divergence);
    report.algorithms.push_back(std::move(d));
  }
  return report;
}

std::vector<DynamicStep> random_dynamic_steps(const CsrGraph& g,
                                              std::size_t count,
                                              std::uint64_t seed) {
  std::vector<DynamicStep> steps;
  const Vertex n = g.num_vertices();
  if (n < 2) return steps;

  // Edge bookkeeping: unordered pairs for undirected graphs (DynamicBc
  // mutates both arcs at once), ordered for directed ones.
  auto key = [&](Vertex u, Vertex v) {
    if (!g.directed() && u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::unordered_set<std::uint64_t> present;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (const Edge& e : g.arcs()) {
    if (!g.directed() && e.src > e.dst) continue;
    present.insert(key(e.src, e.dst));
    edges.emplace_back(e.src, e.dst);
  }

  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    bool done = false;
    if (edges.empty() || (rng() & 1) != 0) {
      // Insert a currently-absent non-loop edge; give up after a few draws
      // on near-complete graphs and fall through to a removal.
      for (int attempt = 0; attempt < 64 && !done; ++attempt) {
        const auto u = static_cast<Vertex>(rng() % n);
        const auto v = static_cast<Vertex>(rng() % n);
        if (u == v || present.count(key(u, v)) != 0) continue;
        steps.push_back({u, v, true});
        present.insert(key(u, v));
        edges.emplace_back(u, v);
        done = true;
      }
    }
    if (!done && !edges.empty()) {
      const std::size_t idx = rng() % edges.size();
      const auto [u, v] = edges[idx];
      steps.push_back({u, v, false});
      present.erase(key(u, v));
      edges[idx] = edges.back();
      edges.pop_back();
      done = true;
    }
    if (!done) break;  // neither insertable nor removable: K1/K0 leftovers
  }
  return steps;
}

}  // namespace apgre
