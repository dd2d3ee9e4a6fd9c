// Seeded input graphs of the ledger workloads.
//
// Each is built by the library's generators (graph/generators.hpp,
// graph/transform.hpp) in the shape of one of the paper's Table-1
// analogues from bench/workloads.cpp (a biconnected core plus satellite
// communities, chains and pendants hung off articulation points), with
// every generator seeded from the run's seed. `scale` multiplies every
// linear size (1.0 for the ledger, smaller for the smoke test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/update.hpp"

namespace ledger {

/// A seed for one input component, independent across `tag`s.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// The skewed social analogue: a Barabasi-Albert core plus 6-vertex
/// communities, 3-vertex chains and pendants (about 9.7k vertices and 68k
/// arcs at scale 1). AP-rich and made of many blocks.
apgre::CsrGraph social_graph(std::uint64_t seed, double scale);

/// The road analogue: an 81x81 road_grid with diagonals and 6% pruned edges
/// plus dead-end chains and pendants (about 7.6k vertices at scale 1). One
/// block holds nearly every vertex.
apgre::CsrGraph road_graph(std::uint64_t seed, double scale);

/// caveman(1024, 24): cliques of 24 chained by single bridges (about 24.6k
/// vertices and 567k arcs at scale 1).
apgre::CsrGraph caveman_graph(std::uint64_t seed, double scale);

struct Tenant {
  std::string name;
  apgre::CsrGraph graph;
};

/// The four tenant graphs of the service workload: the email,
/// collaboration, video-social and skewed analogues, each at half size.
std::vector<Tenant> tenant_graphs(std::uint64_t seed, double scale);

/// For every biconnected block that has them, `count` vertex-disjoint
/// edges whose endpoints are not articulation points, checked so that
/// deleting them all at once leaves the block-cut tree intact. Toggling
/// such a set (delete all, re-insert all) is a local batch every time.
/// Smallest blocks first.
std::vector<std::vector<apgre::Edge>> local_chords(const apgre::CsrGraph& g,
                                                   std::size_t count);

/// An absent edge between two pendants hanging off the largest block:
/// inserting it merges exactly that block and the two pendant bridges, a
/// structural update that leaves every other block alone; removing it
/// again is a structural delete. Both endpoints are kInvalidVertex when
/// there is no such pair.
apgre::Edge core_cross_edge(const apgre::CsrGraph& g);

/// A batch toggling `edges` (all inserts or all deletes).
apgre::UpdateRequest toggle_batch(const std::vector<apgre::Edge>& edges,
                                  bool insert);

}  // namespace ledger
