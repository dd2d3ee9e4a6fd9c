#include "bc/weighted.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "bcc/partition.hpp"
#include "bcc/reach.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require_positive_weights(const WeightedCsrGraph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (double w : g.out_weights(v)) {
      APGRE_REQUIRE(w > 0.0, "weighted BC requires strictly positive weights");
    }
  }
}

/// Lazy-deletion Dijkstra recording the settled order (monotone distance),
/// which the backward dependency sweep walks in reverse.
struct DijkstraScratch {
  std::vector<double> dist;
  std::vector<double> sigma;
  std::vector<double> d_i2i;
  std::vector<double> d_i2o;
  std::vector<double> d_o2o;
  std::vector<Vertex> settled;

  void ensure(Vertex n) {
    if (dist.size() < n) {
      dist.assign(n, kInf);
      sigma.assign(n, 0.0);
      d_i2i.assign(n, 0.0);
      d_i2o.assign(n, 0.0);
      d_o2o.assign(n, 0.0);
    }
  }

  void reset_touched() {
    for (Vertex v : settled) {
      dist[v] = kInf;
      sigma[v] = 0.0;
      d_i2i[v] = 0.0;
      d_i2o[v] = 0.0;
      d_o2o[v] = 0.0;
    }
    settled.clear();
  }
};

/// Forward phase: fills dist/sigma/settled for source s.
void dijkstra_forward(const WeightedCsrGraph& g, Vertex s, DijkstraScratch& scratch) {
  using Entry = std::pair<double, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  scratch.dist[s] = 0.0;
  scratch.sigma[s] = 1.0;
  queue.emplace(0.0, s);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > scratch.dist[v]) continue;  // stale entry
    scratch.settled.push_back(v);
    const auto neighbors = g.out_neighbors(v);
    const auto weights = g.out_weights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const Vertex w = neighbors[i];
      const double nd = d + weights[i];
      if (nd < scratch.dist[w]) {
        scratch.dist[w] = nd;
        scratch.sigma[w] = scratch.sigma[v];
        queue.emplace(nd, w);
      } else if (nd == scratch.dist[w]) {
        scratch.sigma[w] += scratch.sigma[v];
      }
    }
  }
}

/// Plain weighted Brandes iteration (used by weighted_brandes_bc).
void weighted_brandes_iteration(const WeightedCsrGraph& g, Vertex s,
                                DijkstraScratch& scratch, std::vector<double>& bc) {
  dijkstra_forward(g, s, scratch);
  for (std::size_t i = scratch.settled.size(); i-- > 0;) {
    const Vertex v = scratch.settled[i];
    const auto neighbors = g.out_neighbors(v);
    const auto weights = g.out_weights(v);
    double acc = 0.0;
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const Vertex w = neighbors[j];
      if (scratch.dist[w] == scratch.dist[v] + weights[j]) {
        acc += scratch.sigma[v] / scratch.sigma[w] * (1.0 + scratch.d_i2i[w]);
      }
    }
    scratch.d_i2i[v] = acc;
    if (v != s) bc[v] += acc;
  }
  scratch.reset_touched();
}

/// APGRE sub-graph kernel with a Dijkstra traversal: identical dependency
/// algebra to the unweighted kernel in apgre.cpp, different order.
void weighted_subgraph_source(const WeightedCsrGraph& g, const Subgraph& sg,
                              Vertex s, DijkstraScratch& scratch,
                              std::vector<double>& bc) {
  const bool s_is_ap = sg.is_boundary_ap[s] != 0;
  const double size_o2i = s_is_ap ? static_cast<double>(sg.beta[s]) : 0.0;
  const double gamma_s = static_cast<double>(sg.gamma[s]);

  for (Vertex a : sg.boundary_aps) {
    if (a == s) continue;
    scratch.d_i2o[a] = static_cast<double>(sg.alpha[a]);
    if (s_is_ap) scratch.d_o2o[a] = size_o2i * static_cast<double>(sg.alpha[a]);
  }

  dijkstra_forward(g, s, scratch);

  for (std::size_t i = scratch.settled.size(); i-- > 0;) {
    const Vertex v = scratch.settled[i];
    const auto neighbors = g.out_neighbors(v);
    const auto weights = g.out_weights(v);
    double acc_i2i = 0.0;
    double acc_i2o = scratch.d_i2o[v];
    double acc_o2o = scratch.d_o2o[v];
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const Vertex w = neighbors[j];
      if (scratch.dist[w] != scratch.dist[v] + weights[j]) continue;
      const double coef = scratch.sigma[v] / scratch.sigma[w];
      acc_i2i += coef * (1.0 + scratch.d_i2i[w]);
      acc_i2o += coef * scratch.d_i2o[w];
      if (s_is_ap) acc_o2o += coef * scratch.d_o2o[w];
    }
    scratch.d_i2i[v] = acc_i2i;
    scratch.d_i2o[v] = acc_i2o;
    scratch.d_o2o[v] = acc_o2o;
    if (v != s) {
      bc[v] += (1.0 + gamma_s) * (acc_i2i + acc_i2o) + size_o2i * acc_i2i + acc_o2o;
    } else if (gamma_s > 0.0) {
      double self = acc_i2i + acc_i2o;
      if (!g.directed()) self -= 1.0;
      if (s_is_ap) self += static_cast<double>(sg.alpha[s]);
      bc[s] += gamma_s * self;
    }
  }
  scratch.reset_touched();
  for (Vertex a : sg.boundary_aps) {
    scratch.d_i2o[a] = 0.0;
    scratch.d_o2o[a] = 0.0;
  }
}

/// Local weighted view of a decomposition sub-graph.
WeightedCsrGraph weighted_subgraph(const WeightedCsrGraph& g, const Subgraph& sg) {
  std::vector<WeightedEdge> edges;
  edges.reserve(sg.num_arcs());
  for (const Edge& local : sg.graph.arcs()) {
    edges.push_back(WeightedEdge{
        local.src, local.dst,
        g.arc_weight(sg.to_global[local.src], sg.to_global[local.dst])});
  }
  return WeightedCsrGraph::from_edges(sg.num_vertices(), std::move(edges),
                                      g.directed());
}

}  // namespace

std::vector<double> weighted_naive_bc(const WeightedCsrGraph& g) {
  const Vertex n = g.num_vertices();
  APGRE_REQUIRE(n <= 512, "weighted_naive_bc is an O(V^3) oracle; graph too large");
  require_positive_weights(g);

  // Floyd-Warshall with path counting.
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kInf));
  std::vector<std::vector<double>> sigma(n, std::vector<double>(n, 0.0));
  for (Vertex v = 0; v < n; ++v) {
    dist[v][v] = 0.0;
    sigma[v][v] = 1.0;
  }
  for (const WeightedEdge& e : g.arcs()) {
    if (e.weight < dist[e.src][e.dst]) {
      dist[e.src][e.dst] = e.weight;
      sigma[e.src][e.dst] = 1.0;
    }
  }
  for (Vertex k = 0; k < n; ++k) {
    for (Vertex i = 0; i < n; ++i) {
      if (i == k || dist[i][k] == kInf) continue;
      for (Vertex j = 0; j < n; ++j) {
        if (j == k || j == i || dist[k][j] == kInf) continue;
        const double through = dist[i][k] + dist[k][j];
        if (through < dist[i][j]) {
          dist[i][j] = through;
          sigma[i][j] = sigma[i][k] * sigma[k][j];
        } else if (through == dist[i][j]) {
          sigma[i][j] += sigma[i][k] * sigma[k][j];
        }
      }
    }
  }

  std::vector<double> bc(n, 0.0);
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      if (s == t || dist[s][t] == kInf) continue;
      for (Vertex v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        if (dist[s][v] == kInf || dist[v][t] == kInf) continue;
        if (dist[s][v] + dist[v][t] != dist[s][t]) continue;
        bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
      }
    }
  }
  return bc;
}

std::vector<double> weighted_brandes_bc(const WeightedCsrGraph& g) {
  require_positive_weights(g);
  std::vector<double> bc(g.num_vertices(), 0.0);
  DijkstraScratch scratch;
  scratch.ensure(g.num_vertices());
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    weighted_brandes_iteration(g, s, scratch, bc);
  }
  return bc;
}

std::vector<double> weighted_apgre_bc(const WeightedCsrGraph& g,
                                      const ApgreOptions& opts, ApgreStats* stats,
                                      const SchedulerOptions& sched) {
  require_positive_weights(g);
  Timer total_timer;
  ApgreStats local_stats;
  std::optional<WorkStealingScheduler> private_sched;
  WorkStealingScheduler& scheduler = select_scheduler(sched, private_sched);

  PartitionOptions popts = opts.partition;
  popts.compute_reach = false;
  Decomposition dec;
  {
    ScopedTimer t(local_stats.partition_seconds);
    dec = decompose(g.structure(), popts, scheduler);
  }
  {
    ScopedTimer t(local_stats.reach_seconds);
    compute_reach_counts(g.structure(), dec, opts.partition.reach, nullptr,
                         scheduler);
  }

  std::vector<double> bc(g.num_vertices(), 0.0);
  {
    ScopedTimer t(local_stats.rest_bc_seconds);
    // Per-slot global accumulation buffers, allocated on a slot's first
    // chunk and merged once the loop returns.
    struct SlotState {
      std::vector<double> bc;
      DijkstraScratch scratch;
      std::vector<double> local;
    };
    std::vector<SlotState> slots(static_cast<std::size_t>(scheduler.num_slots()));
    scheduler.parallel_for(
        0, static_cast<std::int64_t>(dec.subgraphs.size()), 8,
        [&](std::int64_t lo, std::int64_t hi, int slot) {
          SlotState& st = slots[static_cast<std::size_t>(slot)];
          if (st.bc.empty()) st.bc.assign(g.num_vertices(), 0.0);
          for (std::int64_t i = lo; i < hi; ++i) {
            const Subgraph& sg = dec.subgraphs[static_cast<std::size_t>(i)];
            const WeightedCsrGraph wsg = weighted_subgraph(g, sg);
            st.scratch.ensure(sg.num_vertices());
            st.local.assign(sg.num_vertices(), 0.0);
            for (Vertex s : sg.roots) {
              weighted_subgraph_source(wsg, sg, s, st.scratch, st.local);
            }
            for (Vertex v = 0; v < sg.num_vertices(); ++v) {
              st.bc[sg.to_global[v]] += st.local[v];
            }
          }
        });
    for (const SlotState& st : slots) {
      if (st.bc.empty()) continue;
      for (Vertex v = 0; v < g.num_vertices(); ++v) bc[v] += st.bc[v];
    }
  }

  local_stats.total_seconds = total_timer.seconds();
  local_stats.num_subgraphs = dec.subgraphs.size();
  local_stats.num_articulation_points = dec.num_articulation_points;
  local_stats.num_pendants_removed = dec.num_pendants_removed;
  if (!dec.subgraphs.empty()) {
    const Subgraph& top = dec.subgraphs[dec.top_subgraph];
    local_stats.top_vertices = top.num_vertices();
    local_stats.top_arcs = top.num_arcs();
  }
  const auto work = dec.work_model(g.num_arcs());
  local_stats.partial_redundancy = work.partial_redundancy;
  local_stats.total_redundancy = work.total_redundancy;
  if (stats != nullptr) *stats = local_stats;
  return bc;
}

}  // namespace apgre
