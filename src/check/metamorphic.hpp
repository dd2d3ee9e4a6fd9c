// Metamorphic correctness rules for the BC algorithm family.
//
// Each rule applies a score-preserving or score-predictable transformation
// to an input graph and asserts the predicted relationship between the
// scores before and after, using the algorithm under test for both runs:
//
//   * relabel        BC'(pi(v)) == BC(v) for a random permutation pi
//   * pendant        attaching a pendant p to host h shifts every score by
//                    the paper's gamma-derivation delta: +2*delta_h(v)
//                    (undirected; +delta_h(v) directed, arc p->h), +2r at
//                    the host (r = vertices reachable from h), and the
//                    pendant itself scores 0
//   * union          the disjoint union of two graphs scores as the
//                    concatenation of their separate score vectors
//   * subdivision    subdividing a bridge (u,w) with a new vertex x leaves
//                    pair structure intact: BC'(v) = BC(v) + 2*delta_x(v),
//                    and BC'(x) = 2*a*b where a/b are the side sizes of the
//                    bridge (the ordered pairs that must cross it)
//   * isolated       appending an isolated vertex changes nothing and the
//                    new vertex scores 0
//   * peel_attach    decorating the graph with seeded chains + pendants and
//                    then 2-core-peeling the decoration must reproduce the
//                    algorithm under test exactly: the 2-core keeps its
//                    scores (up to the closed-form anchor correction) and
//                    every attached vertex matches its closed-form
//                    prediction (graph/transform.hpp two_core_peel)
//
// delta_s is the Brandes single-source dependency, so the pendant and
// subdivision predictions cross-check the algorithm under test against an
// independent accumulation path. Rules assume an exact algorithm; scores
// are compared with the oracle tolerance. The halving option is ignored
// (rules are stated in the ordered-pair convention).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "graph/csr.hpp"

namespace apgre {

struct MetamorphicResult {
  std::string rule;
  /// False when the rule's precondition failed (e.g. no bridge to
  /// subdivide); ok is true in that case but the rule checked nothing.
  bool applied = true;
  bool ok = true;
  std::string detail;  ///< blame on failure (worst vertex, scores, norms)
};

MetamorphicResult check_relabel_invariance(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed,
                                           double rel = 1e-7, double abs = 1e-6);

MetamorphicResult check_pendant_attachment(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed,
                                           double rel = 1e-7, double abs = 1e-6);

MetamorphicResult check_disjoint_union(const CsrGraph& g1, const CsrGraph& g2,
                                       const BcOptions& opts,
                                       double rel = 1e-7, double abs = 1e-6);

MetamorphicResult check_bridge_subdivision(const CsrGraph& g,
                                           const BcOptions& opts,
                                           std::uint64_t seed,
                                           double rel = 1e-7, double abs = 1e-6);

MetamorphicResult check_isolated_vertex(const CsrGraph& g, const BcOptions& opts,
                                        double rel = 1e-7, double abs = 1e-6);

/// peel_attach: attach seeded tendril chains and pendants to `g`, peel the
/// decorated graph to its 2-core, solve the flat reduction with the
/// algorithm under test and re-expand — must equal solving the decorated
/// graph directly. Not applied to directed or empty graphs (nothing to
/// peel / nothing to attach to).
MetamorphicResult check_peel_attachment(const CsrGraph& g, const BcOptions& opts,
                                        std::uint64_t seed, double rel = 1e-7,
                                        double abs = 1e-6);

/// Run every applicable rule on `g` (union pairs it with a small seeded
/// companion of the same directedness).
std::vector<MetamorphicResult> run_metamorphic_rules(const CsrGraph& g,
                                                     const BcOptions& opts,
                                                     std::uint64_t seed,
                                                     double rel = 1e-7,
                                                     double abs = 1e-6);

}  // namespace apgre
