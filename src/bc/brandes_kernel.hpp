// Internal: the per-source Brandes kernel every serial BC kernel shares.
// `forward_sweep` records one source's shortest-path DAG, `backward_sweep`
// runs the dependency recursion over it with optional seeds and pendant
// weights, and `BrandesScratch` is their working set. Serial Brandes, the
// coarse source-parallel algorithm and the dynamic checker (all through
// `brandes_iteration`), edge betweenness (bc/edge_bc.cpp) and APGRE's
// per-sub-graph kernel (bc/apgre.cpp) differ only in what they do with
// each vertex's D(v). Each caller owns its scratch (and, when parallel, a
// private bc buffer).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "support/timer.hpp"

namespace apgre::detail {

/// Distance of a vertex the sweep has not reached. It is larger than any
/// level, so one signed compare tells a fresh vertex from a reached one.
inline constexpr std::int32_t kUnvisited = INT32_MAX;

/// One source's shortest-path DAG: the BFS discovery queue and, for the
/// vertex at queue position i, its DAG successors
/// succ[succ_begin(i) .. succ_end[i]) in CSR order. The sweep stores every
/// scanned neighbour at queue[tail] and succ[num_succ] before it knows
/// whether to keep it. The queue store can land one past the last vertex,
/// so `queue` holds n + 1 entries; the succ store cannot, since each arc
/// scanned before it raised num_succ at most once, so `succ` sized by the
/// arc count suffices. Neither needs a capacity check.
struct SuccessorDag {
  std::vector<Vertex> queue;
  std::vector<EdgeId> succ_end;
  std::vector<Vertex> succ;
  std::size_t reached = 0;  ///< queue entries filled by the last sweep
  std::size_t scanned = 0;  ///< of those, the prefix whose arcs it scanned

  EdgeId succ_begin(std::size_t i) const { return i == 0 ? 0 : succ_end[i - 1]; }
};

/// Forward sweep from `s`: BFS distances and shortest-path counts into
/// `dist` / `sigma` (all kUnvisited / 0 on entry), recording the DAG into
/// `dag`, which must be sized for `g` (BrandesScratch::ensure). Queue order
/// is level order, so walking the queue backwards visits every successor
/// before its predecessors.
///
/// The BFS is branch-free per arc: every neighbour is stored at the queue
/// tail and in the next successor slot, and the tail and the successor
/// count advance by the outcome of a compare. Once every vertex is queued
/// and the head reaches the deepest level, no arc can lead to a fresh
/// vertex or a successor, so the scan stops there. Sigma is summed after
/// the BFS over the recorded successors, in queue order and CSR order: the
/// same additions in the same order as summing per arc during the BFS.
inline void forward_sweep(const CsrGraph& g, Vertex s, std::int32_t* dist,
                          double* sigma, SuccessorDag& dag) {
  const EdgeId* offsets = g.out_offsets().data();
  const Vertex* targets = g.out_targets().data();
  Vertex* queue = dag.queue.data();
  EdgeId* succ_end = dag.succ_end.data();
  Vertex* succ = dag.succ.data();
  const std::size_t n = g.num_vertices();
  dist[s] = 0;
  sigma[s] = 1.0;
  queue[0] = s;
  std::size_t tail = 1;
  std::size_t head = 0;
  // The level being scanned ends at queue[level_end]; its successors sit
  // at distance `next`.
  std::size_t level_end = 1;
  std::int32_t next = 1;
  EdgeId num_succ = 0;
  for (; head < tail; ++head) {
    if (head == level_end) {
      // queue[head .. tail) is the next level, and the deepest one once
      // every vertex is queued.
      if (tail == n) break;
      level_end = tail;
      ++next;
    }
    const Vertex v = queue[head];
    for (EdgeId k = offsets[v]; k < offsets[v + 1]; ++k) {
      const Vertex w = targets[k];
      // Kept in a register: the queue and succ stores may alias dist.
      const std::int32_t dist_w = dist[w];
      const bool fresh = dist_w > next;
      queue[tail] = w;
      tail += fresh;
      const std::int32_t d = fresh ? next : dist_w;
      dist[w] = d;
      succ[num_succ] = w;
      num_succ += d == next;
    }
    succ_end[head] = num_succ;
  }
  dag.scanned = head;
  for (std::size_t i = head; i < tail; ++i) succ_end[i] = num_succ;
  dag.reached = tail;

  EdgeId j = 0;
  for (std::size_t i = 0; i < head; ++i) {
    const double sigma_v = sigma[queue[i]];
    for (; j < succ_end[i]; ++j) sigma[succ[j]] += sigma_v;
  }
}

/// Backward sweep over the DAG the last `forward_sweep` recorded, in reverse
/// queue order, so every successor is final before its predecessors:
///
///   D(v) = delta[v] + pw[v] + sigma[v] * sum over w in succ(v) of delta[w]
///
/// On entry `delta[v]` holds v's dependency seed (0 when unseeded); `pw` is
/// null or a per-vertex pendant weight. The sweep leaves the ratio
/// (1 + D(v)) / sigma[v] in `delta[v]`, so it divides once per vertex, not
/// once per arc, and calls `visit(i, v, D(v))` for the vertex at queue
/// position i, after every successor's ratio is in `delta`.
template <typename Visit>
inline void backward_sweep(const SuccessorDag& dag, const double* sigma,
                           double* delta, const double* pw, Visit&& visit) {
  const Vertex* succ = dag.succ.data();
  for (std::size_t i = dag.reached; i-- > 0;) {
    const Vertex v = dag.queue[i];
    double ratios = 0.0;
    for (EdgeId j = dag.succ_begin(i); j < dag.succ_end[i]; ++j) {
      ratios += delta[succ[j]];
    }
    const double d =
        delta[v] + (pw != nullptr ? pw[v] : 0.0) + sigma[v] * ratios;
    delta[v] = (1.0 + d) / sigma[v];
    visit(i, v, d);
  }
}

/// Per-source working set of every serial kernel, reset in O(touched)
/// between sources and grown, never shrunk, by `ensure`. Cache-line
/// aligned: per-slot scratches sit side by side in one array, and the
/// tallies below change per source.
struct alignas(64) BrandesScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  /// Seeds, then (1 + D[v]) / sigma[v] once v is swept (`backward_sweep`).
  std::vector<double> delta;
  SuccessorDag dag;

  // Observability tallies accumulated across sources; the driving algorithm
  // flushes them into the metrics registry once per run (the scratch is
  // per-thread, so tallying here stays contention-free). Only
  // `brandes_iteration` times its two phases.
  std::uint64_t sources = 0;
  std::uint64_t traversed_arcs = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  /// Grow to a graph of `n` vertices and `arcs` arcs; every slot stays
  /// clean.
  void ensure(Vertex n, EdgeId arcs) {
    if (dist.size() < n) {
      dist.assign(n, kUnvisited);
      sigma.assign(n, 0.0);
      delta.assign(n, 0.0);
      dag.queue.assign(std::size_t{n} + 1, 0);
      dag.succ_end.assign(n, 0);
    }
    if (dag.succ.size() < arcs) dag.succ.assign(arcs, 0);
  }

  /// Clear what the last source touched in `g` and tally the arcs its
  /// sweep scanned.
  void reset_touched(const CsrGraph& g) {
    ++sources;
    for (std::size_t i = 0; i < dag.scanned; ++i) {
      traversed_arcs += g.out_degree(dag.queue[i]);
    }
    for (std::size_t i = 0; i < dag.reached; ++i) {
      const Vertex v = dag.queue[i];
      dist[v] = kUnvisited;
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
    dag.reached = 0;
    dag.scanned = 0;
  }
};

/// One complete Brandes iteration from `s` (`scratch` sized for `g`): the
/// forward sweep, then the backward sweep adding `weight * D(v)` into `bc`
/// for every v != s.
inline void brandes_iteration(const CsrGraph& g, Vertex s, double weight,
                              BrandesScratch& scratch, std::vector<double>& bc) {
  Timer phase_timer;
  forward_sweep(g, s, scratch.dist.data(), scratch.sigma.data(), scratch.dag);
  scratch.forward_seconds += phase_timer.seconds();

  phase_timer.reset();
  backward_sweep(scratch.dag, scratch.sigma.data(), scratch.delta.data(),
                 nullptr, [&](std::size_t, Vertex v, double d) {
                   if (v != s) bc[v] += weight * d;
                 });
  scratch.backward_seconds += phase_timer.seconds();
  scratch.reset_touched(g);
}

}  // namespace apgre::detail
