#include "bc/apgre.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

#include "bc/frontier.hpp"
#include "bcc/reach.hpp"
#include "graph/transform.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

// --------------------------------------------------------------------------
// Serial per-sub-graph kernel (paper Algorithm 2). One backward sweep
// accumulates all four dependency types:
//   d_i2i: plain Brandes dependency restricted to the sub-graph,
//   d_i2o: initialised with alpha at boundary APs, propagated upward,
//   d_o2o: initialised with beta(s)*alpha at boundary APs when the source
//          is itself a boundary AP,
//   out2in needs no array: delta_o2i = beta(s) * d_i2i (paper eq. 5).
// --------------------------------------------------------------------------

struct SubgraphScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<double> d_i2i;
  std::vector<double> d_i2o;
  std::vector<double> d_o2o;
  LevelBuckets levels;

  // Observability tallies; the owner flushes them into the metrics registry
  // when the scratch retires (once per thread, so tallying is contention-free).
  std::uint64_t sources = 0;
  std::uint64_t traversed_arcs = 0;

  void ensure(Vertex n) {
    if (dist.size() < n) {
      dist.assign(n, kUnvisited);
      sigma.assign(n, 0.0);
      d_i2i.assign(n, 0.0);
      d_i2o.assign(n, 0.0);
      d_o2o.assign(n, 0.0);
    }
  }

  void reset_touched(const Subgraph& sg) {
    ++sources;
    for (Vertex v : levels.touched()) {
      traversed_arcs += sg.graph.out_degree(v);
      dist[v] = kUnvisited;
      sigma[v] = 0.0;
      d_i2i[v] = 0.0;
      d_i2o[v] = 0.0;
      d_o2o[v] = 0.0;
    }
    levels.clear();
    // Unreachable boundary APs keep their Phase-0 init values; clear them too.
    for (Vertex a : sg.boundary_aps) {
      d_i2o[a] = 0.0;
      d_o2o[a] = 0.0;
    }
  }
};

void subgraph_source_serial(const Subgraph& sg, Vertex s, SubgraphScratch& scratch,
                            std::vector<double>& bc) {
  const CsrGraph& g = sg.graph;
  auto& dist = scratch.dist;
  auto& sigma = scratch.sigma;
  auto& d_i2i = scratch.d_i2i;
  auto& d_i2o = scratch.d_i2o;
  auto& d_o2o = scratch.d_o2o;
  auto& levels = scratch.levels;

  const bool s_is_ap = sg.is_boundary_ap[s] != 0;
  const double size_o2i = s_is_ap ? static_cast<double>(sg.beta[s]) : 0.0;
  const double gamma_s = static_cast<double>(sg.gamma[s]);
  // Phantom-pendant multiplicities (2-core peel): pw[v] leaf children hang
  // off v at dist[v]+1 with sigma equal to v's, contributing pw[v] to the
  // i2i recursion exactly as the flat reduction's in-graph pendants would.
  const double* pw =
      sg.pendant_weight.empty() ? nullptr : sg.pendant_weight.data();

  // Phase 0: dependency seeds at boundary articulation points (other than
  // the source; paths ending at the source's own sub-DAG are accounted in
  // the sub-graphs on the other side of s).
  for (Vertex a : sg.boundary_aps) {
    if (a == s) continue;
    d_i2o[a] = static_cast<double>(sg.alpha[a]);
    if (s_is_ap) d_o2o[a] = size_o2i * static_cast<double>(sg.alpha[a]);
  }

  // Phase 1: forward BFS building sigma and level buckets.
  dist[s] = 0;
  sigma[s] = 1.0;
  levels.push(s);
  levels.finish_level();
  for (std::size_t current = 0; !levels.level(current).empty(); ++current) {
    // Index-based scan: push() may reallocate the level storage.
    const auto [begin, end] = levels.level_range(current);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const Vertex v = levels.vertex(idx);
      for (Vertex w : g.out_neighbors(v)) {
        if (dist[w] == kUnvisited) {
          dist[w] = dist[v] + 1;
          levels.push(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    levels.finish_level();
    if (levels.level(current + 1).empty()) break;
  }

  // Phase 2: backward sweep; level 0 (the source itself) is processed too,
  // because the pendant-derived contribution needs the recursion values at
  // v == s (Theorem 3).
  for (std::size_t lvl = levels.num_levels(); lvl-- > 0;) {
    for (Vertex v : levels.level(lvl)) {
      double acc_i2i = pw != nullptr ? pw[v] : 0.0;
      double acc_i2o = d_i2o[v];
      double acc_o2o = d_o2o[v];
      for (Vertex w : g.out_neighbors(v)) {
        if (dist[w] != dist[v] + 1) continue;
        const double coef = sigma[v] / sigma[w];
        acc_i2i += coef * (1.0 + d_i2i[w]);
        acc_i2o += coef * d_i2o[w];
        if (s_is_ap) acc_o2o += coef * d_o2o[w];
      }
      d_i2i[v] = acc_i2i;
      d_i2o[v] = acc_i2o;
      d_o2o[v] = acc_o2o;
      if (v != s) {
        bc[v] += (1.0 + gamma_s) * (acc_i2i + acc_i2o) + size_o2i * acc_i2i +
                 acc_o2o;
      } else if (gamma_s > 0.0) {
        // Derived pendant DAGs: dependency of each pendant on its host.
        // Undirected pendants are reachable from the host, so the pair
        // (pendant, pendant) must be excluded (-1); a boundary-AP host
        // additionally separates the pendant from alpha(s) outside targets.
        double self = acc_i2i + acc_i2o;
        if (!g.directed()) self -= 1.0;
        if (s_is_ap) self += static_cast<double>(sg.alpha[s]);
        bc[s] += gamma_s * self;
      }
    }
  }
  scratch.reset_touched(sg);
}

void flush_kernel_tallies(std::uint64_t sources, std::uint64_t traversed_arcs,
                          std::uint64_t cas_retries = 0) {
  MetricsRegistry& m = metrics();
  m.counter("bc.apgre.sources").add(sources);
  m.counter("bc.apgre.traversed_arcs").add(traversed_arcs);
  if (cas_retries != 0) m.counter("bc.apgre.cas_retries").add(cas_retries);
}

std::vector<double> subgraph_bc_serial(const Subgraph& sg) {
  std::vector<double> bc(sg.num_vertices(), 0.0);
  SubgraphScratch scratch;
  scratch.ensure(sg.num_vertices());
  for (Vertex s : sg.roots) subgraph_source_serial(sg, s, scratch, bc);
  flush_kernel_tallies(scratch.sources, scratch.traversed_arcs);
  return bc;
}

// --------------------------------------------------------------------------
// Fine-grained kernel: the same mathematics as subgraph_source_serial with
// a level-synchronous parallel forward phase (CAS vertex claims, atomic
// sigma) and a parallel successor-pull backward phase (single writer per
// delta cell), each level one nested WorkStealingScheduler::parallel_for —
// paper §4, Algorithm 2. This is the kernel the "dedicated" large/few-root
// sub-graphs dispatch from inside scheduler tasks; the scheduler is
// reentrant, so N service clients can drive N parallel solves
// concurrently.
// --------------------------------------------------------------------------

struct SchedScratch {
  std::vector<std::atomic<std::int32_t>> dist;
  std::vector<std::atomic<double>> sigma;
  std::vector<double> d_i2i;
  std::vector<double> d_i2o;
  std::vector<double> d_o2o;
  LevelBuckets levels;
  SlotLocalFrontier next;
  // Direction-optimising forward phase: unvisited list + per-slot splits.
  std::vector<Vertex> candidates;
  SlotLocalFrontier remaining;

  std::uint64_t sources = 0;
  std::uint64_t traversed_arcs = 0;
  std::atomic<std::uint64_t> cas_retries{0};

  SchedScratch(Vertex n, int slots)
      : dist(n), sigma(n), d_i2i(n, 0.0), d_i2o(n, 0.0), d_o2o(n, 0.0),
        next(slots), remaining(slots) {
    for (Vertex v = 0; v < n; ++v) {
      dist[v].store(kUnvisited, std::memory_order_relaxed);
      sigma[v].store(0.0, std::memory_order_relaxed);
    }
  }
};

void subgraph_source_scheduled(const Subgraph& sg, Vertex s, SchedScratch& st,
                               std::vector<double>& bc, bool hybrid_inner,
                               WorkStealingScheduler& sched) {
  const CsrGraph& g = sg.graph;
  const int workers = sched.num_workers();
  const bool s_is_ap = sg.is_boundary_ap[s] != 0;
  const double size_o2i = s_is_ap ? static_cast<double>(sg.beta[s]) : 0.0;
  const double gamma_s = static_cast<double>(sg.gamma[s]);

  for (Vertex a : sg.boundary_aps) {
    if (a == s) continue;
    st.d_i2o[a] = static_cast<double>(sg.alpha[a]);
    if (s_is_ap) st.d_o2o[a] = size_o2i * static_cast<double>(sg.alpha[a]);
  }

  st.dist[s].store(0, std::memory_order_relaxed);
  st.sigma[s].store(1.0, std::memory_order_relaxed);
  st.levels.push(s);
  st.levels.finish_level();
  const auto total_arcs = static_cast<double>(g.num_arcs());
  std::uint64_t frontier_out_edges = g.out_degree(s);
  double explored_arcs = 0.0;
  bool candidates_valid = false;

  for (std::size_t current = 0; !st.levels.level(current).empty(); ++current) {
    const auto frontier = st.levels.level(current);
    const auto depth = static_cast<std::int32_t>(current);
    explored_arcs += static_cast<double>(frontier_out_edges);
    // Beamer thresholds (alpha=15, beta=20), only when requested.
    const bool bottom_up =
        hybrid_inner &&
        static_cast<double>(frontier_out_edges) >
            (total_arcs - explored_arcs) / 15.0 &&
        static_cast<double>(frontier.size()) >
            static_cast<double>(g.num_vertices()) / 20.0;

    if (bottom_up) {
      if (!candidates_valid) {
        st.candidates.clear();
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          if (st.dist[v].load(std::memory_order_relaxed) == kUnvisited) {
            st.candidates.push_back(v);
          }
        }
        candidates_valid = true;
      }
      sched.parallel_for(
          0, static_cast<std::int64_t>(st.candidates.size()),
          level_grain(st.candidates.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int slot) {
            auto& next = st.next.local(slot);
            auto& remaining = st.remaining.local(slot);
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = st.candidates[static_cast<std::size_t>(i)];
              double paths = 0.0;
              for (Vertex u : g.in_neighbors(v)) {
                if (st.dist[u].load(std::memory_order_relaxed) == depth) {
                  paths += st.sigma[u].load(std::memory_order_relaxed);
                }
              }
              if (paths > 0.0) {
                st.dist[v].store(depth + 1, std::memory_order_relaxed);
                st.sigma[v].store(paths, std::memory_order_relaxed);
                next.push_back(v);
              } else {
                remaining.push_back(v);
              }
            }
          });
      // Re-collect the shrunken unvisited list from the split buffers.
      st.candidates.clear();
      st.next.drain_into(st.levels);
      st.remaining.drain_into(st.candidates);
    } else {
      sched.parallel_for(
          0, static_cast<std::int64_t>(frontier.size()),
          level_grain(frontier.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int slot) {
            auto& next = st.next.local(slot);
            std::uint64_t lost_claims = 0;
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = frontier[static_cast<std::size_t>(i)];
              for (Vertex w : g.out_neighbors(v)) {
                std::int32_t expected = kUnvisited;
                if (st.dist[w].compare_exchange_strong(
                        expected, depth + 1, std::memory_order_relaxed)) {
                  next.push_back(w);
                  expected = depth + 1;
                } else if (expected == depth + 1) {
                  ++lost_claims;
                }
                if (expected == depth + 1) {
                  st.sigma[w].fetch_add(
                      st.sigma[v].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
                }
              }
            }
            if (lost_claims != 0) {
              st.cas_retries.fetch_add(lost_claims, std::memory_order_relaxed);
            }
          });
      st.next.drain_into(st.levels);
      candidates_valid = false;  // stale after a push level
    }
    st.levels.finish_level();
    const auto fresh = st.levels.level(current + 1);
    if (fresh.empty()) break;
    frontier_out_edges = 0;
    for (Vertex v : fresh) frontier_out_edges += g.out_degree(v);
  }

  // Phantom-pendant seed; see subgraph_source_serial.
  const double* pw =
      sg.pendant_weight.empty() ? nullptr : sg.pendant_weight.data();
  for (std::size_t lvl = st.levels.num_levels(); lvl-- > 0;) {
    const auto level = st.levels.level(lvl);
    sched.parallel_for(
        0, static_cast<std::int64_t>(level.size()),
        level_grain(level.size(), workers),
        [&](std::int64_t lo, std::int64_t hi, int) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const Vertex v = level[static_cast<std::size_t>(i)];
            const auto dv = st.dist[v].load(std::memory_order_relaxed);
            const double sv = st.sigma[v].load(std::memory_order_relaxed);
            double acc_i2i = pw != nullptr ? pw[v] : 0.0;
            double acc_i2o = st.d_i2o[v];
            double acc_o2o = st.d_o2o[v];
            for (Vertex w : g.out_neighbors(v)) {
              if (st.dist[w].load(std::memory_order_relaxed) != dv + 1) continue;
              const double coef =
                  sv / st.sigma[w].load(std::memory_order_relaxed);
              acc_i2i += coef * (1.0 + st.d_i2i[w]);
              acc_i2o += coef * st.d_i2o[w];
              if (s_is_ap) acc_o2o += coef * st.d_o2o[w];
            }
            st.d_i2i[v] = acc_i2i;
            st.d_i2o[v] = acc_i2o;
            st.d_o2o[v] = acc_o2o;
            if (v != s) {
              bc[v] += (1.0 + gamma_s) * (acc_i2i + acc_i2o) +
                       size_o2i * acc_i2i + acc_o2o;
            } else if (gamma_s > 0.0) {
              double self = acc_i2i + acc_i2o;
              if (!g.directed()) self -= 1.0;
              if (s_is_ap) self += static_cast<double>(sg.alpha[s]);
              bc[s] += gamma_s * self;
            }
          }
        });
  }

  ++st.sources;
  for (Vertex v : st.levels.touched()) {
    st.traversed_arcs += g.out_degree(v);
    st.dist[v].store(kUnvisited, std::memory_order_relaxed);
    st.sigma[v].store(0.0, std::memory_order_relaxed);
    st.d_i2i[v] = 0.0;
    st.d_i2o[v] = 0.0;
    st.d_o2o[v] = 0.0;
  }
  st.levels.clear();
  for (Vertex a : sg.boundary_aps) {
    st.d_i2o[a] = 0.0;
    st.d_o2o[a] = 0.0;
  }
}

std::vector<double> subgraph_bc_scheduled(const Subgraph& sg, bool hybrid_inner,
                                          WorkStealingScheduler& sched) {
  std::vector<double> bc(sg.num_vertices(), 0.0);
  SchedScratch scratch(sg.num_vertices(), sched.num_slots());
  for (Vertex s : sg.roots) {
    subgraph_source_scheduled(sg, s, scratch, bc, hybrid_inner, sched);
  }
  flush_kernel_tallies(scratch.sources, scratch.traversed_arcs,
                       scratch.cas_retries.load(std::memory_order_relaxed));
  return bc;
}

/// Arc threshold above which a sub-graph is "large" (fine-grained tier).
EdgeId fine_grain_cutoff(const ApgreOptions& opts, EdgeId total_arcs) {
  return std::max<EdgeId>(
      opts.fine_grain_min_arcs,
      static_cast<EdgeId>(opts.fine_grain_fraction * static_cast<double>(total_arcs)));
}

// --------------------------------------------------------------------------
// Scoring: every (sub-graph, root-batch) pair becomes a task on the
// work-stealing scheduler (support/sched/scheduler.hpp). Sub-graphs too
// large to split profitably become *dedicated* tasks that run the
// fine-grained level-synchronous kernel, opening nested parallel_for
// calls from inside their task body — the whole run is one scheduler
// invocation, so concurrent solves interleave freely (no process-wide
// lock). The kernel per tier is chosen adaptively from size / root-count
// heuristics and the choice is recorded in ApgreStats.
// --------------------------------------------------------------------------

std::vector<double> score_scheduled(const CsrGraph& g, const Decomposition& dec,
                                    const ApgreOptions& opts,
                                    const SchedulerOptions& sched,
                                    WorkStealingScheduler& scheduler,
                                    ApgreStats& stats) {
  const int workers = scheduler.num_workers();
  const int slots = scheduler.num_slots();
  const EdgeId fine_cutoff = fine_grain_cutoff(opts, g.num_arcs());
  const bool inner_parallel_pays = workers > 1;

  // Classify: `dedicated` sub-graphs are large but have too few roots to
  // split into enough batches to load-balance — fine-grained parallelism
  // inside one source is the only lever left. Large sub-graphs with many
  // roots split into root batches; everything else is one serial task.
  struct Piece {
    std::size_t sgi;
    std::size_t root_begin;
    std::size_t root_end;
    std::uint64_t cost;  ///< ~arcs * roots, for largest-first distribution
    bool batch;          ///< part of a split sub-graph (vs whole)
  };
  std::vector<std::size_t> dedicated;
  std::vector<Piece> pieces;
  for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
    const Subgraph& sg = dec.subgraphs[i];
    const std::size_t roots = sg.roots.size();
    if (roots == 0) continue;
    const bool large = sg.num_arcs() >= fine_cutoff;
    if (large && sched.adaptive_kernel && inner_parallel_pays &&
        roots < 2 * static_cast<std::size_t>(workers)) {
      dedicated.push_back(i);
      continue;
    }
    std::size_t grain = roots;
    if (large) {
      grain = sched.grain > 0
                  ? static_cast<std::size_t>(sched.grain)
                  : std::max<std::size_t>(
                        1, roots / (4 * static_cast<std::size_t>(workers)));
    }
    const std::uint64_t arc_cost = std::max<std::uint64_t>(sg.num_arcs(), 1);
    for (std::size_t b = 0; b < roots; b += grain) {
      const std::size_t e = std::min(roots, b + grain);
      pieces.push_back(
          {i, b, e, arc_cost * static_cast<std::uint64_t>(e - b), large});
    }
  }
  // Largest pieces first: run() deals tasks round-robin, and thieves steal
  // from the victim's old end, so big work spreads out before the tail.
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.cost > b.cost; });

  std::vector<double> bc(g.num_vertices(), 0.0);

  // Per-slot accumulation state. Sub-graphs overlap only at articulation
  // points, but giving each slot a private global-id buffer (lazily
  // allocated on first use) makes every task body race-free without locks.
  // Sized num_slots(): external participant threads get slots beyond the
  // pool workers. Safe under nesting too — a dedicated task's nested
  // parallel_for may pop another task of this run onto the same slot, but
  // that task runs to completion before the wait loop resumes, and the
  // dedicated task touches its WorkerBuf only after its kernel finishes.
  struct WorkerBuf {
    std::vector<double> bc;
    SubgraphScratch scratch;
    std::vector<double> local;
  };
  std::vector<WorkerBuf> bufs(static_cast<std::size_t>(slots));
  const Vertex n_global = g.num_vertices();

  // Dedicated sub-graphs run inside scheduler tasks like everything else;
  // their wall time is summed here so the Figure-8 top/rest breakdown
  // survives the move off the serial pre-pass.
  std::atomic<double> dedicated_seconds{0.0};

  std::vector<WorkStealingScheduler::Task> tasks;
  tasks.reserve(dedicated.size() + pieces.size());
  for (std::size_t sgi : dedicated) {
    tasks.push_back([&dec, &bufs, &scheduler, &opts, &dedicated_seconds,
                     n_global, sgi](int slot) {
      Timer timer;
      const Subgraph& sg = dec.subgraphs[sgi];
      // Dense low-diameter sub-graphs flip to the direction-optimising
      // forward phase even when the caller left hybrid_inner off.
      const bool hybrid =
          opts.hybrid_inner ||
          (sg.num_vertices() > 0 &&
           sg.num_arcs() / static_cast<EdgeId>(sg.num_vertices()) >= 16);
      const std::vector<double> local =
          subgraph_bc_scheduled(sg, hybrid, scheduler);
      WorkerBuf& wb = bufs[static_cast<std::size_t>(slot)];
      if (wb.bc.empty()) wb.bc.assign(n_global, 0.0);
      for (Vertex v = 0; v < sg.num_vertices(); ++v) {
        wb.bc[sg.to_global[v]] += local[v];
      }
      dedicated_seconds.fetch_add(timer.seconds(), std::memory_order_relaxed);
    });
  }
  for (const Piece& p : pieces) {
    tasks.push_back([&dec, &bufs, n_global, p](int slot) {
      WorkerBuf& wb = bufs[static_cast<std::size_t>(slot)];
      if (wb.bc.empty()) wb.bc.assign(n_global, 0.0);
      const Subgraph& sg = dec.subgraphs[p.sgi];
      wb.scratch.ensure(sg.num_vertices());
      wb.local.assign(sg.num_vertices(), 0.0);
      for (std::size_t r = p.root_begin; r < p.root_end; ++r) {
        subgraph_source_serial(sg, sg.roots[r], wb.scratch, wb.local);
      }
      for (Vertex v = 0; v < sg.num_vertices(); ++v) {
        wb.bc[sg.to_global[v]] += wb.local[v];
      }
    });
  }

  SchedulerStats run_stats;
  {
    APGRE_TRACE_SPAN("apgre/rest_bc");
    ScopedTimer t(stats.rest_bc_seconds);
    run_stats = scheduler.run(std::move(tasks));
    for (WorkerBuf& wb : bufs) {
      if (wb.bc.empty()) continue;
      for (Vertex v = 0; v < n_global; ++v) bc[v] += wb.bc[v];
    }
  }
  stats.top_bc_seconds += dedicated_seconds.load(std::memory_order_relaxed);
  for (const WorkerBuf& wb : bufs) {
    if (wb.scratch.sources != 0) {
      flush_kernel_tallies(wb.scratch.sources, wb.scratch.traversed_arcs);
    }
  }

  stats.num_fine_subgraphs = dedicated.size();
  for (const Piece& p : pieces) {
    if (p.batch && (p.root_begin != 0 || p.root_end != dec.subgraphs[p.sgi].roots.size())) {
      ++stats.num_batch_tasks;
    } else {
      ++stats.num_subgraph_tasks;
    }
  }
  stats.sched_tasks = run_stats.tasks;
  stats.sched_steals = run_stats.steals;
  stats.sched_idle_seconds = run_stats.idle_seconds;
  return bc;
}

}  // namespace

std::vector<double> apgre_subgraph_bc(const Subgraph& sg) {
  return subgraph_bc_serial(sg);
}

std::vector<double> apgre_subgraph_bc_scheduled(const Subgraph& sg,
                                                bool hybrid_inner,
                                                const SchedulerOptions& sched) {
  std::optional<WorkStealingScheduler> private_sched;
  return subgraph_bc_scheduled(sg, hybrid_inner,
                               select_scheduler(sched, private_sched));
}

std::vector<double> apgre_bc_with_decomposition(const CsrGraph& g,
                                                const Decomposition& dec,
                                                const ApgreOptions& opts,
                                                ApgreStats* stats,
                                                const SchedulerOptions& sched) {
  std::optional<WorkStealingScheduler> private_sched;
  return apgre_bc_with_decomposition(g, dec, opts, stats, sched,
                                     select_scheduler(sched, private_sched));
}

std::vector<double> apgre_bc_with_decomposition(const CsrGraph& g,
                                                const Decomposition& dec,
                                                const ApgreOptions& opts,
                                                ApgreStats* stats,
                                                const SchedulerOptions& sched,
                                                WorkStealingScheduler& scheduler) {
  APGRE_TRACE_SPAN("apgre/score");
  ApgreStats local;
  if (stats != nullptr) {
    // The caller reports what it spent on decompose + reach + peel; a
    // Solver cache hit legitimately reports zero here.
    local.partition_seconds = stats->partition_seconds;
    local.reach_seconds = stats->reach_seconds;
    local.peel_seconds = stats->peel_seconds;
    local.peeled_vertices = stats->peeled_vertices;
    local.core_fraction = stats->core_fraction;
  }

  Timer score_timer;
  std::vector<double> bc =
      score_scheduled(g, dec, opts, sched, scheduler, local);
  local.total_seconds = local.peel_seconds + local.partition_seconds +
                        local.reach_seconds + score_timer.seconds();

  local.num_subgraphs = dec.subgraphs.size();
  local.num_articulation_points = dec.num_articulation_points;
  local.num_pendants_removed = dec.num_pendants_removed;
  if (!dec.subgraphs.empty()) {
    const Subgraph& top = dec.subgraphs[dec.top_subgraph];
    local.top_vertices = top.num_vertices();
    local.top_arcs = top.num_arcs();
  }
  const auto work = dec.work_model(g.num_arcs());
  local.partial_redundancy = work.partial_redundancy;
  local.total_redundancy = work.total_redundancy;
  if (stats != nullptr) *stats = local;

  MetricsRegistry& m = metrics();
  m.counter("apgre.runs").add(1);
  m.counter("apgre.subgraphs").add(local.num_subgraphs);
  m.counter("apgre.articulation_points").add(local.num_articulation_points);
  m.counter("apgre.pendants_removed").add(local.num_pendants_removed);
  m.gauge("apgre.partition_seconds").set(local.partition_seconds);
  m.gauge("apgre.reach_seconds").set(local.reach_seconds);
  m.gauge("apgre.top_bc_seconds").set(local.top_bc_seconds);
  m.gauge("apgre.rest_bc_seconds").set(local.rest_bc_seconds);
  m.gauge("apgre.total_seconds").set(local.total_seconds);
  m.gauge("apgre.partial_redundancy").set(local.partial_redundancy);
  m.gauge("apgre.total_redundancy").set(local.total_redundancy);
  Histogram& hv = m.histogram("apgre.subgraph_vertices");
  Histogram& ha = m.histogram("apgre.subgraph_arcs");
  for (const Subgraph& sg : dec.subgraphs) {
    hv.observe(sg.num_vertices());
    ha.observe(sg.num_arcs());
  }
  return bc;
}

std::vector<double> apgre_bc(const CsrGraph& g, const ApgreOptions& opts,
                             ApgreStats* stats, const SchedulerOptions& sched) {
  std::optional<WorkStealingScheduler> private_sched;
  return apgre_bc(g, opts, stats, sched, select_scheduler(sched, private_sched));
}

std::vector<double> apgre_bc(const CsrGraph& g, const ApgreOptions& opts,
                             ApgreStats* stats, const SchedulerOptions& sched,
                             WorkStealingScheduler& scheduler) {
  APGRE_TRACE_SPAN("apgre/total");
  ApgreStats local;

  // Step 0 (optional): peel the tree fringe down to the 2-core and solve
  // the core-only reduction. Each anchor absorbs its peeled subtrees as a
  // derived pendant multiplicity — a gamma weight plus weighted alpha/beta
  // reach counts — so the core-side Brandes runs never traverse the fringe
  // yet produce the same core totals as the unpeeled graph; the peeled
  // vertices' own scores are closed-form. Directed graphs bypass inside
  // two_core_peel.
  if (opts.partition.peel_two_core && !g.directed()) {
    double peel_seconds = 0.0;
    PeelResult peel;
    {
      ScopedTimer t(peel_seconds);
      peel = two_core_peel(g);
    }
    if (peel.num_peeled > 0) {
      CsrGraph core;
      {
        ScopedTimer t(peel_seconds);
        core = peeled_core_reduction(g, peel);
      }
      PartitionOptions popts = opts.partition;
      popts.peel_two_core = false;
      popts.compute_reach = false;
      Decomposition dec;
      {
        APGRE_TRACE_SPAN("apgre/decompose");
        ScopedTimer t(local.partition_seconds);
        dec = decompose(core, popts, scheduler);
        inject_pendant_weights(dec, peel.anchor_weight);
      }
      {
        APGRE_TRACE_SPAN("apgre/reach");
        ScopedTimer t(local.reach_seconds);
        compute_reach_counts(core, dec, opts.partition.reach,
                             &peel.anchor_weight, scheduler);
      }
      ApgreOptions inner = opts;
      inner.partition = popts;
      local.peel_seconds = peel_seconds;
      local.peeled_vertices = peel.num_peeled;
      local.core_fraction = peel.core_fraction();
      std::vector<double> bc = apgre_bc_with_decomposition(
          core, dec, inner, &local, sched, scheduler);
      expand_peeled_scores(peel, bc);
      metrics().gauge("graph.peel.seconds").set(peel_seconds);
      if (stats != nullptr) *stats = local;
      return bc;
    }
  }

  // Step 1: decomposition (timed separately from reach counting so the
  // Figure-8 breakdown can report both).
  PartitionOptions popts = opts.partition;
  popts.compute_reach = false;
  Decomposition dec;
  {
    APGRE_TRACE_SPAN("apgre/decompose");
    ScopedTimer t(local.partition_seconds);
    dec = decompose(g, popts, scheduler);
  }
  // Step 2: alpha/beta counting.
  {
    APGRE_TRACE_SPAN("apgre/reach");
    ScopedTimer t(local.reach_seconds);
    compute_reach_counts(g, dec, opts.partition.reach, nullptr, scheduler);
  }
  // Step 3: scoring + stats/metrics.
  std::vector<double> bc =
      apgre_bc_with_decomposition(g, dec, opts, &local, sched, scheduler);
  if (stats != nullptr) *stats = local;
  return bc;
}

}  // namespace apgre
