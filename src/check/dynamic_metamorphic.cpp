#include "check/dynamic_metamorphic.hpp"

#include <sstream>
#include <utility>

#include "bc/brandes.hpp"
#include "bc/incremental.hpp"
#include "bcc/bridges.hpp"
#include "bcc/queries.hpp"
#include "check/oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/mutate.hpp"
#include "support/prng.hpp"

namespace apgre {

namespace {

MetamorphicResult not_applied(const std::string& rule, const std::string& why) {
  MetamorphicResult result{.rule = rule, .detail = {}};
  result.applied = false;
  result.detail = why;
  return result;
}

/// Merge one labelled comparison into `result` (first failure wins blame).
void fold(MetamorphicResult& result, const std::string& label,
          const std::vector<double>& expected,
          const std::vector<double>& actual, double rel, double abs) {
  if (!result.ok) return;
  const ScoreComparison cmp = compare_scores(expected, actual, rel, abs);
  if (cmp.ok) return;
  result.ok = false;
  std::ostringstream os;
  os << label << ": " << cmp.num_violations << " vertices over tolerance; "
     << "worst v" << cmp.worst_vertex << " expected " << cmp.expected_score
     << " actual " << cmp.actual_score;
  result.detail = os.str();
}

void fail(MetamorphicResult& result, const std::string& why) {
  if (!result.ok) return;
  result.ok = false;
  result.detail = why;
}

/// Apply one edge edit as a batch of one; true when it stayed local.
bool apply_edit(IncrementalBc& engine, Vertex u, Vertex v, bool insert) {
  return engine.apply_batch(UpdateRequest{{EdgeOp{u, v, insert}}})
             .batch_downgrades == 0;
}

}  // namespace

MetamorphicResult check_dynamic_pendant_attach(const CsrGraph& g,
                                               const BcOptions& opts,
                                               std::uint64_t seed, double rel,
                                               double abs) {
  const Vertex n = g.num_vertices();
  if (n == 0) return not_applied("dynamic_pendant", "empty graph");

  Xoshiro256 rng(hash_combine64(seed, 0xd1a7));
  const Vertex host = static_cast<Vertex>(rng.bounded(n));

  IncrementalBc engine(g, opts);

  // Closed-form prediction, computed on the pre-attach graph (the static
  // pendant rule as a delta).
  const double sides = g.directed() ? 1.0 : 2.0;
  std::vector<double> predicted = engine.scores();
  const std::vector<double> dependency =
      brandes_bc_from_sources(g, {host}, sides);
  for (Vertex v = 0; v < n; ++v) predicted[v] += dependency[v];
  predicted[host] += sides * static_cast<double>(reachable_count(g, host));
  predicted.push_back(0.0);

  engine.attach_pendant(host);

  MetamorphicResult result{.rule = "dynamic_pendant", .detail = {}};
  fold(result, "closed form", predicted, engine.scores(), rel, abs);
  fold(result, "static oracle", brandes_bc(engine.graph()), engine.scores(),
       rel, abs);
  return result;
}

MetamorphicResult check_dynamic_bridge_delete(const CsrGraph& g,
                                              const BcOptions& opts,
                                              std::uint64_t seed, double rel,
                                              double abs) {
  if (g.directed()) {
    return not_applied("dynamic_bridge_delete", "directed graph");
  }
  const BridgeDecomposition bridges = bridge_decomposition(g);
  if (bridges.bridges.empty()) {
    return not_applied("dynamic_bridge_delete", "no bridges");
  }

  Xoshiro256 rng(hash_combine64(seed, 0xb41d));
  const Edge bridge = bridges.bridges[rng.bounded(bridges.bridges.size())];
  const Vertex a = bridge.src;
  const Vertex b = bridge.dst;

  IncrementalBc engine(g, opts);

  // Closed form on the post-delete graph: the bridge carried exactly the
  // ordered pairs crossing sides A (around a) and B (around b). For v not
  // an endpoint, the lost flow is 2|B|*delta'_a(v) + 2|A|*delta'_b(v)
  // (one delta' is zero on each side); the endpoints lose their interior
  // role in the crossing pairs outright.
  const CsrGraph cut = with_edge_removed(g, a, b);
  const double side_a = static_cast<double>(reachable_count(cut, a)) + 1.0;
  const double side_b = static_cast<double>(reachable_count(cut, b)) + 1.0;
  const std::vector<double> from_a =
      brandes_bc_from_sources(cut, {a}, -2.0 * side_b);
  const std::vector<double> from_b =
      brandes_bc_from_sources(cut, {b}, -2.0 * side_a);
  std::vector<double> predicted = engine.scores();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    predicted[v] += from_a[v] + from_b[v];
  }
  predicted[a] = engine.scores()[a] - 2.0 * (side_a - 1.0) * side_b;
  predicted[b] = engine.scores()[b] - 2.0 * (side_b - 1.0) * side_a;
  const std::vector<double> before = engine.scores();

  apply_edit(engine, a, b, /*insert=*/false);

  MetamorphicResult result{.rule = "dynamic_bridge_delete", .detail = {}};
  fold(result, "closed form", predicted, engine.scores(), rel, abs);
  fold(result, "static oracle", brandes_bc(engine.graph()), engine.scores(),
       rel, abs);

  // Re-inserting the bridge is the inverse rule: the originals come back.
  apply_edit(engine, a, b, /*insert=*/true);
  fold(result, "re-insert restoration", before, engine.scores(), rel, abs);
  return result;
}

MetamorphicResult check_dynamic_chord_roundtrip(const CsrGraph& g,
                                                const BcOptions& opts,
                                                std::uint64_t seed, double rel,
                                                double abs) {
  if (g.directed()) {
    return not_applied("dynamic_chord_roundtrip", "directed graph");
  }
  const Vertex n = g.num_vertices();
  if (n < 4) return not_applied("dynamic_chord_roundtrip", "graph too small");

  // Random trials for a chord candidate: two distinct non-articulation
  // vertices sharing a block, not yet adjacent.
  const BlockCutQueries queries(g);
  Xoshiro256 rng(hash_combine64(seed, 0xc04d));
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  for (int trial = 0; trial < 200 && u == kInvalidVertex; ++trial) {
    const Vertex cu = static_cast<Vertex>(rng.bounded(n));
    const Vertex cv = static_cast<Vertex>(rng.bounded(n));
    if (cu == cv || has_arc(g, cu, cv)) continue;
    if (!queries.classify_batch({EdgeOp{cu, cv, /*insert=*/true}}).structural) {
      u = cu;
      v = cv;
    }
  }
  if (u == kInvalidVertex) {
    return not_applied("dynamic_chord_roundtrip", "no chord candidate found");
  }

  IncrementalBc engine(g, opts);
  const std::vector<double> before = engine.scores();

  MetamorphicResult result{.rule = "dynamic_chord_roundtrip", .detail = {}};
  if (!apply_edit(engine, u, v, /*insert=*/true)) {
    fail(result, "chord insert did not classify kLocalInsert");
  }
  fold(result, "static oracle after insert", brandes_bc(engine.graph()),
       engine.scores(), rel, abs);

  // The chord's block minus the chord is the original block, which was
  // biconnected — so the deletion must take the localized path too.
  if (!apply_edit(engine, u, v, /*insert=*/false)) {
    fail(result, "chord delete did not classify kLocalDelete");
  }
  fold(result, "roundtrip restoration", before, engine.scores(), rel, abs);
  if (result.ok && engine.stats().structural_resolves != 0) {
    fail(result, "roundtrip took a structural fallback");
  }
  return result;
}

std::vector<MetamorphicResult> run_dynamic_metamorphic_rules(
    const CsrGraph& g, const BcOptions& opts, std::uint64_t seed, double rel,
    double abs) {
  std::vector<MetamorphicResult> results;
  results.push_back(check_dynamic_pendant_attach(g, opts, seed, rel, abs));
  results.push_back(check_dynamic_bridge_delete(g, opts, seed, rel, abs));
  results.push_back(check_dynamic_chord_roundtrip(g, opts, seed, rel, abs));
  return results;
}

}  // namespace apgre
