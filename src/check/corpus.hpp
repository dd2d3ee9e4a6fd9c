// Seeded random-graph corpus shared by the correctness harness (oracle /
// metamorphic / invariant sweeps), the property tests and the apgre_diff
// CLI driver. Every case is a (shape, directedness, decoration) combination
// mirroring a structural class of the paper's evaluation graphs; the same
// (seed, tiny) pair always yields the same corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace apgre {

struct CorpusCase {
  std::string name;
  CsrGraph graph;
};

/// Deterministic family of mixed graphs keyed by seed. `tiny` keeps sizes
/// within reach of the O(|V|^3) naive oracle; the large variant is sized
/// for the non-naive algorithms.
std::vector<CorpusCase> graph_corpus(std::uint64_t seed, bool tiny);

}  // namespace apgre
