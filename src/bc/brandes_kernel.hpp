// Internal: the per-source Brandes kernel pieces. `forward_sweep` is the
// one forward sweep, shared by the serial baseline and the coarse
// source-parallel algorithm (both through `brandes_iteration`), edge
// betweenness, the incremental checker and APGRE's per-sub-graph kernel
// (bc/apgre.cpp). Each caller owns its scratch (and, when parallel, a
// private bc buffer).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "support/timer.hpp"

namespace apgre::detail {

inline constexpr std::int32_t kUnvisited = -1;

/// One source's shortest-path DAG: the BFS discovery queue and, for the
/// vertex at queue position i, its DAG successors
/// succ[succ_begin(i) .. succ_end[i]) in CSR order. Each arc is recorded
/// at most once per source, so `succ` sized by the arc count never
/// overflows and the sweep needs no capacity check.
struct SuccessorDag {
  std::vector<Vertex> queue;
  std::vector<EdgeId> succ_end;
  std::vector<Vertex> succ;
  std::size_t reached = 0;  ///< queue entries filled by the last sweep

  /// Grow to a graph of `n` vertices and `arcs` arcs; never shrinks.
  void ensure(Vertex n, EdgeId arcs) {
    if (queue.size() < n) {
      queue.resize(n);
      succ_end.resize(n);
    }
    if (succ.size() < arcs) succ.resize(arcs);
  }

  EdgeId succ_begin(std::size_t i) const { return i == 0 ? 0 : succ_end[i - 1]; }
};

/// Forward sweep from `s`: BFS distances and shortest-path counts into
/// `dist` / `sigma` (all kUnvisited / 0 on entry), recording the DAG into
/// `dag`, which must be sized for `g` (SuccessorDag::ensure). Queue order is level order, so walking the queue backwards visits
/// every successor before its predecessors.
inline void forward_sweep(const CsrGraph& g, Vertex s, std::int32_t* dist,
                          double* sigma, SuccessorDag& dag) {
  Vertex* queue = dag.queue.data();
  EdgeId* succ_end = dag.succ_end.data();
  Vertex* succ = dag.succ.data();
  dist[s] = 0;
  sigma[s] = 1.0;
  queue[0] = s;
  std::size_t tail = 1;
  EdgeId num_succ = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const Vertex v = queue[head];
    const std::int32_t next = dist[v] + 1;
    const double sigma_v = sigma[v];
    for (Vertex w : g.out_neighbors(v)) {
      // Kept in a register: the queue and succ stores may alias dist.
      std::int32_t dist_w = dist[w];
      if (dist_w == kUnvisited) {
        dist_w = next;
        dist[w] = next;
        queue[tail++] = w;
      }
      if (dist_w == next) {
        sigma[w] += sigma_v;
        succ[num_succ++] = w;
      }
    }
    succ_end[head] = num_succ;
  }
  dag.reached = tail;
}

/// Per-source working set, reset in O(touched) between sources.
struct BrandesScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  SuccessorDag dag;

  // Observability tallies accumulated across sources; the driving algorithm
  // flushes them into the metrics registry once per run (the scratch is
  // per-thread, so tallying here stays contention-free).
  std::uint64_t sources = 0;
  std::uint64_t traversed_arcs = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  explicit BrandesScratch(const CsrGraph& g)
      : dist(g.num_vertices(), kUnvisited),
        sigma(g.num_vertices(), 0.0),
        delta(g.num_vertices(), 0.0),
        dag{.queue = std::vector<Vertex>(g.num_vertices()),
            .succ_end = std::vector<EdgeId>(g.num_vertices()),
            .succ = std::vector<Vertex>(g.num_arcs())} {}

  void reset_touched() {
    for (std::size_t i = 0; i < dag.reached; ++i) {
      const Vertex v = dag.queue[i];
      dist[v] = kUnvisited;
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
    dag.reached = 0;
  }
};

/// One complete Brandes iteration from `s`: the forward sweep, then a
/// backward sweep over the recorded successors adding
/// `weight * delta_s(v)` into `bc`.
inline void brandes_iteration(const CsrGraph& g, Vertex s, double weight,
                              BrandesScratch& scratch, std::vector<double>& bc) {
  double* sigma = scratch.sigma.data();
  double* delta = scratch.delta.data();
  const SuccessorDag& dag = scratch.dag;

  Timer phase_timer;
  forward_sweep(g, s, scratch.dist.data(), sigma, scratch.dag);
  scratch.forward_seconds += phase_timer.seconds();

  phase_timer.reset();
  const Vertex* succ = dag.succ.data();
  for (std::size_t i = dag.reached; i-- > 0;) {
    const Vertex v = dag.queue[i];
    double acc = 0.0;
    for (EdgeId j = dag.succ_begin(i); j < dag.succ_end[i]; ++j) {
      const Vertex w = succ[j];
      acc += sigma[v] / sigma[w] * (1.0 + delta[w]);
    }
    delta[v] = acc;
    if (v != s) bc[v] += weight * acc;
  }
  scratch.backward_seconds += phase_timer.seconds();

  ++scratch.sources;
  for (std::size_t i = 0; i < dag.reached; ++i) {
    scratch.traversed_arcs += g.out_degree(dag.queue[i]);
  }
  scratch.reset_touched();
}

}  // namespace apgre::detail
