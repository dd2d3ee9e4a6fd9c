#include "bcc/partition.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bcc/bicomp.hpp"
#include "bcc/reach.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

/// Pendant classification (paper BUILDSUBGRAPH): directed pendants have no
/// in-arcs and a single out-arc; undirected pendants have degree one with
/// the lower-id endpoint kept as root when two pendants face each other
/// (the K2 component case).
bool is_removed_pendant(const CsrGraph& g, Vertex v) {
  if (g.directed()) {
    return g.in_degree(v) == 0 && g.out_degree(v) == 1;
  }
  if (g.out_degree(v) != 1) return false;
  const Vertex host = g.out_neighbors(v)[0];
  if (g.out_degree(host) == 1) return host < v;  // K2: keep the lower id
  return true;
}

Vertex pendant_host(const CsrGraph& g, Vertex v) { return g.out_neighbors(v)[0]; }

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-slot state of the sub-graph build: a global -> local id map,
/// allocated on the slot's first block and reset after each, and the
/// slot's tallies.
struct alignas(64) BuildSlot {
  std::vector<Vertex> global_to_local;
  Vertex pendants = 0;
  std::size_t top = kNone;  ///< index of the slot's largest sub-graph
};

/// Materialise block `b` as `sg`, taking over the block's vertex list.
/// Returns the number of pendants it removed from the root set.
Vertex build_subgraph(const CsrGraph& g, BiconnectedComponents& bcc, Vertex b,
                      bool total_redundancy, std::vector<Vertex>& global_to_local,
                      Subgraph& sg) {
  Vertex pendants = 0;
  sg.to_global = std::move(bcc.component_vertices[b]);  // sorted
  for (std::size_t i = 0; i < sg.to_global.size(); ++i) {
    global_to_local[sg.to_global[i]] = static_cast<Vertex>(i);
  }
  const auto local_n = static_cast<Vertex>(sg.to_global.size());

  // Arc set: the original directed arcs over the block's edges.
  EdgeList arcs;
  arcs.reserve(2 * bcc.component_edges[b].size());
  for (const Edge& e : bcc.component_edges[b]) {
    const Vertex lu = global_to_local[e.src];
    const Vertex lv = global_to_local[e.dst];
    if (!g.directed()) {
      arcs.push_back(Edge{lu, lv});
      arcs.push_back(Edge{lv, lu});
      continue;
    }
    const auto out_u = g.out_neighbors(e.src);
    if (std::binary_search(out_u.begin(), out_u.end(), e.dst)) {
      arcs.push_back(Edge{lu, lv});
    }
    const auto out_v = g.out_neighbors(e.dst);
    if (std::binary_search(out_v.begin(), out_v.end(), e.src)) {
      arcs.push_back(Edge{lv, lu});
    }
  }
  sg.graph = CsrGraph::from_edges(local_n, std::move(arcs), g.directed());

  // Boundary APs, gamma and the root set.
  sg.is_boundary_ap.assign(local_n, 0);
  sg.gamma.assign(local_n, 0);
  sg.removed.assign(local_n, 0);
  for (Vertex local = 0; local < local_n; ++local) {
    const Vertex global = sg.to_global[local];
    if (bcc.is_articulation[global]) {
      sg.is_boundary_ap[local] = 1;
      sg.boundary_aps.push_back(local);
    }
    if (!total_redundancy || !is_removed_pendant(g, global)) continue;
    // A pendant's one edge is a bridge block, so its host is here too.
    const Vertex host_local = global_to_local[pendant_host(g, global)];
    APGRE_ASSERT_MSG(host_local != kInvalidVertex,
                     "pendant host must share the sub-graph");
    sg.removed[local] = 1;
    ++sg.gamma[host_local];
    ++pendants;
  }
  sg.roots.reserve(local_n);
  for (Vertex local = 0; local < local_n; ++local) {
    if (!sg.removed[local]) sg.roots.push_back(local);
  }

  sg.alpha.assign(local_n, 0);
  sg.beta.assign(local_n, 0);

  // Reset the scratch map for the next block.
  for (Vertex v : sg.to_global) global_to_local[v] = kInvalidVertex;
  return pendants;
}

}  // namespace

bool top_subgraph_beats(const std::vector<Subgraph>& subgraphs, std::size_t i,
                        std::size_t j) {
  const Subgraph& a = subgraphs[i];
  const Subgraph& b = subgraphs[j];
  if (a.num_arcs() != b.num_arcs()) return a.num_arcs() > b.num_arcs();
  if (a.num_vertices() != b.num_vertices()) {
    return a.num_vertices() > b.num_vertices();
  }
  return i < j;
}

Decomposition::WorkModel Decomposition::work_model(EdgeId total_arcs) const {
  WorkModel model;
  model.brandes =
      static_cast<double>(num_vertices) * static_cast<double>(total_arcs);
  // sum (|V_i| + phantoms_i) * arcs_i (partial elimination only): each
  // phantom pendant homed in SG_i is a source whose DAG is derived there.
  double all_sources = 0.0;
  for (const Subgraph& sg : subgraphs) {
    const double arcs = static_cast<double>(sg.num_arcs());
    const double phantoms = std::accumulate(sg.pendant_weight.begin(),
                                            sg.pendant_weight.end(), 0.0);
    all_sources += (static_cast<double>(sg.num_vertices()) + phantoms) * arcs;
    model.apgre += static_cast<double>(sg.roots.size()) * arcs;
  }
  if (model.brandes > 0.0) {
    model.partial_redundancy = 1.0 - all_sources / model.brandes;
    model.total_redundancy = (all_sources - model.apgre) / model.brandes;
  }
  return model;
}

Decomposition decompose(const CsrGraph& g, const PartitionOptions& opts,
                        WorkStealingScheduler& sched) {
  // Lets callers (and the Solver-reuse tests) observe how often the
  // expensive decomposition actually runs.
  metrics().counter("bcc.decompositions").add(1);
  BiconnectedComponents bcc;
  {
    APGRE_TRACE_SPAN("bcc/decompose");
    bcc = biconnected_components(g);
  }

  Decomposition dec;
  dec.num_vertices = g.num_vertices();
  dec.num_blocks = bcc.num_components;
  dec.num_articulation_points = static_cast<Vertex>(std::count(
      bcc.is_articulation.begin(), bcc.is_articulation.end(), true));

  // --- One Subgraph per block. Two blocks share at most one vertex, an
  // articulation point, so every articulation point of a block is one of
  // its boundary APs. Blocks build independently, on `sched`, ordered by
  // their two lowest vertex ids: a strict order (no two blocks share both),
  // and one a local batch cannot change, while the DFS's closing order
  // follows an articulation point's lowest neighbour in each child block.
  std::vector<std::pair<std::uint64_t, Vertex>> order(bcc.num_components);
  for (Vertex b = 0; b < bcc.num_components; ++b) {
    const std::vector<Vertex>& members = bcc.component_vertices[b];
    order[b] = {(std::uint64_t{members[0]} << 32) | members[1], b};
  }
  std::sort(order.begin(), order.end());
  dec.subgraphs.resize(bcc.num_components);
  std::vector<BuildSlot> slots(static_cast<std::size_t>(sched.num_slots()));
  // Chunks of at least 64 blocks, so a graph of few blocks builds inline.
  const std::int64_t blocks = bcc.num_components;
  const std::int64_t grain =
      std::max<std::int64_t>(64, blocks / (8 * sched.num_workers()));
  sched.parallel_for(0, blocks, grain, [&](std::int64_t lo, std::int64_t hi,
                                           int s) {
    BuildSlot& slot = slots[static_cast<std::size_t>(s)];
    if (slot.global_to_local.empty()) {
      slot.global_to_local.assign(g.num_vertices(), kInvalidVertex);
    }
    for (auto b = static_cast<std::size_t>(lo); b < static_cast<std::size_t>(hi);
         ++b) {
      slot.pendants +=
          build_subgraph(g, bcc, order[b].second, opts.total_redundancy,
                         slot.global_to_local, dec.subgraphs[b]);
      if (slot.top == kNone || top_subgraph_beats(dec.subgraphs, b, slot.top)) slot.top = b;
    }
  });
  for (const BuildSlot& slot : slots) {
    dec.num_pendants_removed += slot.pendants;
    if (slot.top != kNone && top_subgraph_beats(dec.subgraphs, slot.top, dec.top_subgraph)) {
      dec.top_subgraph = slot.top;
    }
  }

  if (opts.compute_reach) {
    compute_reach_counts(g, dec, opts.reach, nullptr, sched);
  }

  APGRE_LOG(kDebug) << "decompose: " << dec.subgraphs.size() << " subgraphs, "
                    << dec.num_articulation_points << " APs, "
                    << dec.num_pendants_removed << " pendants removed";
  return dec;
}

void inject_pendant_weights(Decomposition& dec,
                            const std::vector<Vertex>& multiplicity) {
  APGRE_ASSERT_MSG(multiplicity.size() == dec.num_vertices,
                   "pendant multiplicities must cover the decomposed graph");
  // A vertex can sit in several sub-graphs (boundary AP); home the phantom
  // pendants in the first one encountered, mirroring how a real pendant
  // lands in exactly one block.
  std::vector<std::uint8_t> homed(multiplicity.size(), 0);
  for (Subgraph& sg : dec.subgraphs) {
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      const Vertex global = sg.to_global[local];
      const Vertex m = multiplicity[global];
      if (m == 0 || homed[global]) continue;
      homed[global] = 1;
      if (sg.pendant_weight.empty()) sg.pendant_weight.assign(sg.num_vertices(), 0.0);
      sg.pendant_weight[local] = static_cast<double>(m);
      sg.gamma[local] += m;
      dec.num_pendants_removed += m;
    }
  }
}

}  // namespace apgre
