#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include "bcc/articulation.hpp"
#include "bcc/bicomp.hpp"
#include "bcc/block_cut_tree.hpp"
#include "graph/components.hpp"
#include "graph/transform.hpp"

namespace apgre {

namespace {

template <typename... Parts>
void violation(std::vector<std::string>& out, const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  out.push_back(os.str());
}

/// Naive restricted reach: vertices reachable from `start` (excluded)
/// without entering `blocked` vertices, deliberately independent of the
/// epoch-stamped BFS in bcc/reach.cpp.
std::uint64_t naive_restricted_reach(const CsrGraph& g, Vertex start,
                                     bool forward,
                                     const std::vector<std::uint8_t>& blocked) {
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  std::vector<Vertex> queue{start};
  visited[start] = 1;
  std::uint64_t count = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (Vertex w : forward ? g.out_neighbors(v) : g.in_neighbors(v)) {
      if (visited[w] || blocked[w]) continue;
      visited[w] = 1;
      queue.push_back(w);
      ++count;
    }
  }
  return count;
}

/// What the 2-core peel of an undirected graph should remove, counted
/// without two_core_peel: strip vertices of degree < 2 until none is left.
struct FringeCensus {
  Vertex outside_core = 0;  ///< every stripped vertex
  Vertex anchored = 0;      ///< stripped vertices whose component has a core
};

FringeCensus fringe_census(const CsrGraph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> degree(n);
  std::vector<std::uint8_t> stripped(n, 0);
  std::vector<Vertex> stack;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = g.out_degree(v);
    if (degree[v] < 2) {
      stripped[v] = 1;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (Vertex w : g.out_neighbors(v)) {
      if (!stripped[w] && --degree[w] < 2) {
        stripped[w] = 1;
        stack.push_back(w);
      }
    }
  }
  const ComponentLabels labels = connected_components(g);
  std::vector<std::uint8_t> has_core(labels.num_components, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (!stripped[v]) has_core[labels.component[v]] = 1;
  }
  FringeCensus census;
  for (Vertex v = 0; v < n; ++v) {
    if (!stripped[v]) continue;
    ++census.outside_core;
    if (has_core[labels.component[v]]) ++census.anchored;
  }
  return census;
}

}  // namespace

Vertex pendant_census(const CsrGraph& g) {
  Vertex count = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.directed()) {
      if (g.in_degree(v) == 0 && g.out_degree(v) == 1) ++count;
      continue;
    }
    if (g.out_degree(v) != 1) continue;
    const Vertex host = g.out_neighbors(v)[0];
    if (g.out_degree(host) == 1 && host >= v) continue;  // K2: keep lower id
    ++count;
  }
  return count;
}

std::vector<std::string> check_decomposition_invariants(
    const CsrGraph& g, const Decomposition& dec, std::size_t max_reach_checks) {
  std::vector<std::string> violations;
  const Vertex n = g.num_vertices();

  if (dec.num_vertices != n) {
    violation(violations, "decomposition covers ", dec.num_vertices,
              " vertices, graph has ", n);
    return violations;
  }

  // --- 1. Vertex coverage and multiplicity -------------------------------
  std::vector<Vertex> copies(n, 0);
  std::vector<std::uint8_t> flagged_everywhere(n, 1);
  std::uint64_t size_sum = 0;
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    size_sum += sg.num_vertices();
    if (sg.to_global.size() != sg.num_vertices() ||
        sg.is_boundary_ap.size() != sg.num_vertices()) {
      violation(violations, "sub-graph ", sgi, " has inconsistent array sizes");
      continue;
    }
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      const Vertex global = sg.to_global[local];
      if (global >= n) {
        violation(violations, "sub-graph ", sgi, " maps local ", local,
                  " to out-of-range global ", global);
        continue;
      }
      ++copies[global];
      if (!sg.is_boundary_ap[local]) flagged_everywhere[global] = 0;
    }
    for (Vertex local : sg.boundary_aps) {
      if (local >= sg.num_vertices() || !sg.is_boundary_ap[local]) {
        violation(violations, "sub-graph ", sgi, " boundary AP list and flags ",
                  "disagree at local ", local);
      }
    }
  }
  std::uint64_t non_isolated = 0;
  std::uint64_t shared_extra = 0;
  for (Vertex v = 0; v < n; ++v) {
    const bool isolated = g.undirected_degree(v) == 0;
    if (!isolated) ++non_isolated;
    if (isolated && copies[v] != 0) {
      violation(violations, "isolated vertex ", v, " assigned to a sub-graph");
    }
    if (!isolated && copies[v] == 0) {
      violation(violations, "vertex ", v, " with arcs is in no sub-graph");
    }
    if (copies[v] > 1) {
      shared_extra += copies[v] - 1;
      if (!flagged_everywhere[v]) {
        violation(violations, "vertex ", v, " is in ", copies[v],
                  " sub-graphs but not flagged boundary AP in all of them");
      }
    }
  }
  if (size_sum != non_isolated + shared_extra) {
    violation(violations, "sum of sub-graph sizes ", size_sum, " != ",
              non_isolated, " non-isolated + ", shared_extra, " shared copies");
  }

  // --- 2. Boundary APs are articulation points; the counter matches ------
  const std::vector<bool> is_ap = articulation_points(g);
  const auto ap_count = static_cast<Vertex>(
      std::count(is_ap.begin(), is_ap.end(), true));
  if (dec.num_articulation_points != ap_count) {
    violation(violations, "decomposition counts ", dec.num_articulation_points,
              " articulation points, standalone finder counts ", ap_count);
  }
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    for (Vertex local : sg.boundary_aps) {
      if (local >= sg.num_vertices()) continue;
      const Vertex global = sg.to_global[local];
      if (!is_ap[global]) {
        violation(violations, "sub-graph ", sgi, " boundary vertex g", global,
                  " is not an articulation point");
      }
      if (copies[global] < 2) {
        violation(violations, "boundary AP g", global,
                  " is interior to a single sub-graph");
      }
    }
  }

  // --- 3. alpha/beta against naive restricted BFS ------------------------
  std::size_t reach_checked = 0;
  std::vector<std::uint8_t> blocked(n, 0);
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    if (sg.alpha.size() != sg.num_vertices() ||
        sg.beta.size() != sg.num_vertices()) {
      violation(violations, "sub-graph ", sgi, " alpha/beta size mismatch");
      continue;
    }
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      if (!sg.is_boundary_ap[local] &&
          (sg.alpha[local] != 0 || sg.beta[local] != 0)) {
        violation(violations, "sub-graph ", sgi, " non-boundary local ", local,
                  " has non-zero reach counts");
      }
    }
    if (reach_checked >= max_reach_checks) continue;
    for (Vertex v : sg.to_global) blocked[v] = 1;
    for (Vertex local : sg.boundary_aps) {
      if (reach_checked++ >= max_reach_checks) break;
      const Vertex global = sg.to_global[local];
      blocked[global] = 0;  // the AP itself is the gateway
      const std::uint64_t alpha =
          naive_restricted_reach(g, global, /*forward=*/true, blocked);
      const std::uint64_t beta =
          g.directed()
              ? naive_restricted_reach(g, global, /*forward=*/false, blocked)
              : alpha;
      blocked[global] = 1;
      if (sg.alpha[local] != alpha || sg.beta[local] != beta) {
        violation(violations, "sub-graph ", sgi, " AP g", global, ": alpha/beta (",
                  sg.alpha[local], ", ", sg.beta[local],
                  ") != restricted BFS ground truth (", alpha, ", ", beta, ")");
      }
      if (!g.directed() && sg.alpha[local] != sg.beta[local]) {
        violation(violations, "undirected sub-graph ", sgi, " AP g", global,
                  " has alpha != beta");
      }
    }
    for (Vertex v : sg.to_global) blocked[v] = 0;
  }

  // --- 4. Root set / gamma / pendant accounting --------------------------
  Vertex removed_total = 0;
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    std::uint64_t removed_here = 0;
    std::uint64_t gamma_sum = 0;
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      removed_here += sg.removed[local] ? 1 : 0;
      gamma_sum += sg.gamma[local];
      const bool in_roots = std::binary_search(sg.roots.begin(), sg.roots.end(),
                                               local);
      if (in_roots == (sg.removed[local] != 0)) {
        violation(violations, "sub-graph ", sgi, " local ", local,
                  " is neither exactly a root nor exactly removed");
      }
      if (sg.removed[local]) {
        const Vertex global = sg.to_global[local];
        const bool pendant_shape =
            g.directed() ? (g.in_degree(global) == 0 && g.out_degree(global) == 1)
                         : g.undirected_degree(global) == 1;
        if (!pendant_shape) {
          violation(violations, "sub-graph ", sgi, " removed vertex g", global,
                    " fails the pendant degree census");
        }
      }
    }
    if (gamma_sum != removed_here) {
      violation(violations, "sub-graph ", sgi, " gamma sum ", gamma_sum,
                " != removed pendant count ", removed_here);
    }
    removed_total += static_cast<Vertex>(removed_here);
  }
  if (removed_total != dec.num_pendants_removed) {
    violation(violations, "per-sub-graph removed pendants ", removed_total,
              " != decomposition counter ", dec.num_pendants_removed);
  }

  // --- 5. One sub-graph per block ---------------------------------------
  const BiconnectedComponents bcc = biconnected_components(g);
  if (dec.num_blocks != bcc.num_components ||
      dec.subgraphs.size() != bcc.num_components) {
    violation(violations, "decomposition has ", dec.subgraphs.size(),
              " sub-graphs and counts ", dec.num_blocks, " blocks, graph has ",
              bcc.num_components, " blocks");
  }
  std::set<std::vector<Vertex>> unmatched(bcc.component_vertices.begin(),
                                          bcc.component_vertices.end());
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    std::vector<Vertex> members = dec.subgraphs[sgi].to_global;
    std::sort(members.begin(), members.end());
    if (unmatched.erase(members) == 0) {
      violation(violations, "sub-graph ", sgi,
                " vertex set is not a block, or repeats another sub-graph's");
    }
  }

  // --- 6. Every arc of g in exactly one sub-graph ------------------------
  std::vector<Vertex> arc_copies(g.num_arcs(), 0);
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    if (sg.to_global.size() != sg.num_vertices()) continue;  // flagged in 1
    for (const Edge& local : sg.graph.arcs()) {
      const Vertex src = sg.to_global[local.src];
      const Vertex dst = sg.to_global[local.dst];
      const auto neighbors = src < n ? g.out_neighbors(src)
                                     : std::span<const Vertex>();
      const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), dst);
      if (it == neighbors.end() || *it != dst) {
        violation(violations, "sub-graph ", sgi, " contains arc g", src,
                  "->g", dst, " absent from the graph");
        continue;
      }
      ++arc_copies[g.out_offset(src) +
                   static_cast<EdgeId>(it - neighbors.begin())];
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    const auto neighbors = g.out_neighbors(v);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const Vertex count = arc_copies[g.out_offset(v) + j];
      if (count != 1) {
        violation(violations, "arc g", v, "->g", neighbors[j], " lies in ",
                  count, " sub-graphs (expected exactly 1)");
      }
    }
  }

  // --- 7. Undirected: sum(alpha) + |V_i| is the component's size --------
  if (!g.directed()) {
    const ComponentLabels comp = connected_components(g);
    std::vector<std::uint64_t> comp_size(comp.num_components, 0);
    for (Vertex v = 0; v < n; ++v) ++comp_size[comp.component[v]];
    for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
      const Subgraph& sg = dec.subgraphs[sgi];
      if (sg.num_vertices() == 0 || sg.alpha.size() != sg.num_vertices() ||
          sg.to_global.empty() || sg.to_global[0] >= n) {
        continue;  // flagged in 1 or 3
      }
      std::uint64_t alpha_sum = 0;
      for (Vertex local : sg.boundary_aps) {
        if (local < sg.num_vertices()) alpha_sum += sg.alpha[local];
      }
      const std::uint64_t size = comp_size[comp.component[sg.to_global[0]]];
      if (alpha_sum + sg.num_vertices() != size) {
        violation(violations, "sub-graph ", sgi, ": sum(alpha) ", alpha_sum,
                  " + |V_i| ", sg.num_vertices(), " != component size ", size);
      }
    }
  }

  return violations;
}

std::vector<std::string> check_decomposition_agreement(const CsrGraph& g) {
  std::vector<std::string> violations;
  const BiconnectedComponents bcc = biconnected_components(g);

  const CsrGraph projection_storage =
      g.directed() ? undirected_projection(g) : CsrGraph();
  const CsrGraph& u = g.directed() ? projection_storage : g;
  const Vertex n = u.num_vertices();

  // --- 1. Edge partition: every projection edge in exactly one block ----
  std::map<Edge, int> edge_blocks;
  for (const Edge& e : u.arcs()) {
    if (e.src < e.dst) edge_blocks.emplace(e, 0);
  }
  for (Vertex b = 0; b < bcc.num_components; ++b) {
    for (const Edge& e : bcc.component_edges[b]) {
      auto it = edge_blocks.find(e);
      if (it == edge_blocks.end()) {
        violation(violations, "block ", b, " lists edge ", e.src, "-", e.dst,
                  " absent from the graph");
        continue;
      }
      ++it->second;
    }
    // Vertex set == edge endpoints (k2+ blocks always carry edges).
    std::vector<Vertex> endpoints;
    for (const Edge& e : bcc.component_edges[b]) {
      endpoints.push_back(e.src);
      endpoints.push_back(e.dst);
    }
    std::sort(endpoints.begin(), endpoints.end());
    endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                    endpoints.end());
    if (bcc.component_vertices[b] != endpoints) {
      violation(violations, "block ", b,
                " vertex set is not its edges' endpoint set");
    }
  }
  for (const auto& [e, count] : edge_blocks) {
    if (count != 1) {
      violation(violations, "edge ", e.src, "-", e.dst, " lies in ", count,
                " blocks (expected exactly 1)");
    }
  }

  // --- 2. Articulation flags against the standalone finder -------------
  const std::vector<bool> standalone = articulation_points(u);
  std::vector<Vertex> membership(n, 0);
  for (const auto& vertices : bcc.component_vertices) {
    for (Vertex v : vertices) ++membership[v];
  }
  for (Vertex v = 0; v < n; ++v) {
    if (bcc.is_articulation[v] != standalone[v]) {
      violation(violations, "vertex ", v, " articulation flag ",
                bcc.is_articulation[v] ? "set" : "clear",
                ", standalone finder says ", standalone[v] ? "set" : "clear");
    }
    if (bcc.is_articulation[v] && membership[v] < 2) {
      violation(violations, "articulation point ", v, " is in ",
                membership[v], " blocks");
    }
    const Vertex home = bcc.any_component[v];
    if (u.out_degree(v) == 0) {
      if (home != kInvalidVertex) {
        violation(violations, "isolated vertex ", v, " has any_component ",
                  home);
      }
    } else if (home >= bcc.num_components ||
               !std::binary_search(bcc.component_vertices[home].begin(),
                                   bcc.component_vertices[home].end(), v)) {
      violation(violations, "any_component[", v, "] = ", home,
                " does not contain the vertex");
    }
  }

  // --- 3. Block-cut tree is a forest ------------------------------------
  if (!is_forest(block_cut_tree(bcc, n))) {
    violation(violations, "block-cut tree has a cycle");
  }

  return violations;
}

std::vector<std::string> check_stats_invariants(const CsrGraph& g,
                                                const ApgreStats& stats,
                                                const ApgreOptions& opts) {
  std::vector<std::string> violations;
  const Decomposition dec = prepare_apgre(g, opts.partition).dec;

  const bool peels = !g.directed() && opts.partition.total_redundancy;
  const FringeCensus fringe = peels ? fringe_census(g) : FringeCensus{};
  if (stats.peeled_vertices != fringe.outside_core) {
    violation(violations, "stats report ", stats.peeled_vertices,
              " peeled vertices, ", fringe.outside_core,
              " lie outside the 2-core");
  }

  if (stats.num_subgraphs != dec.subgraphs.size()) {
    violation(violations, "stats report ", stats.num_subgraphs,
              " sub-graphs, decomposition yields ", dec.subgraphs.size());
  }
  if (stats.num_articulation_points != dec.num_articulation_points) {
    violation(violations, "stats report ", stats.num_articulation_points,
              " APs, decomposition yields ", dec.num_articulation_points);
  }
  if (stats.num_pendants_removed != dec.num_pendants_removed) {
    violation(violations, "stats report ", stats.num_pendants_removed,
              " pendants removed, decomposition yields ",
              dec.num_pendants_removed);
  }
  // Undirected solves derive every anchored fringe vertex (the core has no
  // degree-1 vertex left); directed ones derive the degree-census pendants.
  const Vertex census = peels ? fringe.anchored : pendant_census(g);
  if (opts.partition.total_redundancy &&
      stats.num_pendants_removed != census) {
    violation(violations, "stats report ", stats.num_pendants_removed,
              " pendants removed, census counts ", census);
  }
  if (!opts.partition.total_redundancy && stats.num_pendants_removed != 0) {
    violation(violations, "pendant derivation disabled but stats report ",
              stats.num_pendants_removed, " pendants removed");
  }
  if (!dec.subgraphs.empty()) {
    const Subgraph& top = dec.subgraphs[dec.top_subgraph];
    if (stats.top_vertices != top.num_vertices() ||
        stats.top_arcs != top.num_arcs()) {
      violation(violations, "stats top sub-graph (", stats.top_vertices, " v, ",
                stats.top_arcs, " arcs) != decomposition top (",
                top.num_vertices(), " v, ", top.num_arcs(), " arcs)");
    }
  }

  const Decomposition::WorkModel work = dec.work_model(g.num_arcs());
  if (std::fabs(stats.partial_redundancy - work.partial_redundancy) > 1e-12 ||
      std::fabs(stats.total_redundancy - work.total_redundancy) > 1e-12) {
    violation(violations, "stats redundancy (", stats.partial_redundancy, ", ",
              stats.total_redundancy, ") != work model (",
              work.partial_redundancy, ", ", work.total_redundancy, ")");
  }
  if (stats.partial_redundancy < -1e-12 || stats.total_redundancy < -1e-12 ||
      stats.partial_redundancy + stats.total_redundancy > 1.0 + 1e-12) {
    violation(violations, "redundancy fractions (", stats.partial_redundancy,
              ", ", stats.total_redundancy, ") outside [0, 1]");
  }

  const double phases[] = {stats.peel_seconds, stats.partition_seconds,
                           stats.reach_seconds, stats.rest_bc_seconds};
  double phase_sum = 0.0;
  for (double phase : phases) {
    if (phase < 0.0) violation(violations, "negative phase time ", phase);
    phase_sum += phase;
  }
  // The phases are timed sequentially inside the total window; a small
  // slack absorbs timer granularity.
  if (phase_sum > stats.total_seconds + 1e-3) {
    violation(violations, "phase times sum to ", phase_sum,
              " s, more than the total ", stats.total_seconds, " s");
  }
  return violations;
}

}  // namespace apgre
