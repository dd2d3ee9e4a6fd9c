#include "bc/apgre.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "bc/frontier.hpp"
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

void flush_kernel_tallies(std::uint64_t sources, std::uint64_t traversed_arcs) {
  MetricsRegistry& m = metrics();
  m.counter("bc.apgre.sources").add(sources);
  m.counter("bc.apgre.traversed_arcs").add(traversed_arcs);
}

std::vector<double> subgraph_bc_serial(const Subgraph& sg) {
  std::vector<double> bc(sg.num_vertices(), 0.0);
  SubgraphScratch scratch;
  scratch.ensure(sg.num_vertices());
  for (Vertex s : sg.roots) subgraph_source_serial(sg, s, scratch, bc);
  flush_kernel_tallies(scratch.sources, scratch.traversed_arcs);
  return bc;
}

// Sub-graphs holding at least this fraction of all arcs, and at least this
// many arcs, are "large": they split into root batches.
constexpr double kLargeFraction = 0.125;
constexpr EdgeId kLargeMinArcs = EdgeId{1} << 14;

EdgeId large_cutoff(EdgeId total_arcs) {
  return std::max<EdgeId>(
      kLargeMinArcs,
      static_cast<EdgeId>(kLargeFraction * static_cast<double>(total_arcs)));
}

// --------------------------------------------------------------------------
// Scoring: every (sub-graph, root-batch) pair becomes a task running the
// serial kernel on the work-stealing scheduler
// (support/sched/scheduler.hpp). A large sub-graph splits into about
// 4 * workers root batches, which is how the inner level of the paper's
// two-level parallelism is supplied; every other sub-graph is one task.
// The whole run is one scheduler invocation, so concurrent solves
// interleave freely (no process-wide lock).
// --------------------------------------------------------------------------

std::vector<double> score_scheduled(const CsrGraph& g, const Decomposition& dec,
                                    WorkStealingScheduler& scheduler,
                                    ApgreStats& stats) {
  const auto workers = static_cast<std::size_t>(scheduler.num_workers());
  const EdgeId cutoff = large_cutoff(g.num_arcs());

  struct Piece {
    std::size_t sgi;
    std::size_t root_begin;
    std::size_t root_end;
    std::uint64_t cost;  ///< ~arcs * roots, for largest-first distribution
  };
  std::vector<Piece> pieces;
  for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
    const Subgraph& sg = dec.subgraphs[i];
    const std::size_t roots = sg.roots.size();
    if (roots == 0) continue;
    const std::size_t grain = sg.num_arcs() >= cutoff
                                  ? std::max<std::size_t>(1, roots / (4 * workers))
                                  : roots;
    const std::uint64_t arc_cost = std::max<std::uint64_t>(sg.num_arcs(), 1);
    for (std::size_t b = 0; b < roots; b += grain) {
      const std::size_t e = std::min(roots, b + grain);
      pieces.push_back({i, b, e, arc_cost * static_cast<std::uint64_t>(e - b)});
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
  // pool workers.
  struct WorkerBuf {
    std::vector<double> bc;
    SubgraphScratch scratch;
    std::vector<double> local;
  };
  std::vector<WorkerBuf> bufs(static_cast<std::size_t>(scheduler.num_slots()));
  const Vertex n_global = g.num_vertices();

  std::vector<WorkStealingScheduler::Task> tasks;
  tasks.reserve(pieces.size());
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
  for (const WorkerBuf& wb : bufs) {
    if (wb.scratch.sources != 0) {
      flush_kernel_tallies(wb.scratch.sources, wb.scratch.traversed_arcs);
    }
  }

  for (const Piece& p : pieces) {
    if (p.root_end - p.root_begin != dec.subgraphs[p.sgi].roots.size()) {
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

std::vector<double> apgre_bc_with_decomposition(const CsrGraph& g,
                                                const Decomposition& dec,
                                                const ApgreOptions&,
                                                ApgreStats* stats,
                                                const SchedulerOptions& sched) {
  std::optional<WorkStealingScheduler> private_sched;
  return apgre_bc_with_decomposition(g, dec, stats,
                                     select_scheduler(sched, private_sched));
}

std::vector<double> apgre_bc_with_decomposition(const CsrGraph& g,
                                                const Decomposition& dec,
                                                ApgreStats* stats,
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
  std::vector<double> bc = score_scheduled(g, dec, scheduler, local);
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

}  // namespace apgre
