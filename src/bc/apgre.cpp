#include "bc/apgre.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

#include "bc/brandes_kernel.hpp"
#include "bcc/reach.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

// --------------------------------------------------------------------------
// Serial per-sub-graph kernel (paper Algorithm 2). The paper's four
// dependency types sum to (1 + gamma(s) + beta(s)) * D(v), where D is one
// Brandes recursion seeded with alpha at the boundary APs and with the
// phantom-pendant weight (DESIGN.md §2), so the shared backward sweep
// (bc/brandes_kernel.hpp) carries one accumulator. beta(s) counts only
// when the source is a boundary AP.
// --------------------------------------------------------------------------

void subgraph_source_serial(const Subgraph& sg, Vertex s,
                            detail::BrandesScratch& scratch,
                            std::vector<double>& bc) {
  const CsrGraph& g = sg.graph;
  double* delta = scratch.delta.data();

  const bool s_is_ap = sg.is_boundary_ap[s] != 0;
  const double gamma_s = static_cast<double>(sg.gamma[s]);
  // Weight of D(v) in bc[v]: in2in and in2out count (1 + gamma(s)) times,
  // out2in and out2out beta(s) times (paper eqs. 3-8).
  const double weight =
      1.0 + gamma_s + (s_is_ap ? static_cast<double>(sg.beta[s]) : 0.0);
  // Phantom-pendant multiplicities (2-core peel): pw[v] leaf children hang
  // off v at dist[v]+1 with sigma equal to v's, contributing pw[v] to the
  // recursion exactly as the flat reduction's in-graph pendants would.
  const double* pw =
      sg.pendant_weight.empty() ? nullptr : sg.pendant_weight.data();

  // Phase 0: dependency seeds at boundary articulation points (other than
  // the source; paths ending at the source's own sub-DAG are accounted in
  // the sub-graphs on the other side of s).
  for (Vertex a : sg.boundary_aps) {
    if (a != s) delta[a] = static_cast<double>(sg.alpha[a]);
  }

  // Phase 1: forward BFS building sigma and the successor DAG.
  detail::forward_sweep(g, s, scratch.dist.data(), scratch.sigma.data(),
                        scratch.dag);

  // Phase 2: the shared backward sweep, D(v) = seed(v) + pw[v] + sigma[v] *
  // sum over successors w of (1 + D(w)) / sigma[w]. The source itself is
  // swept too, because the pendant-derived contribution needs D(s)
  // (Theorem 3).
  detail::backward_sweep(
      scratch.dag, scratch.sigma.data(), delta, pw,
      [&](std::size_t, Vertex v, double d) {
        if (v != s) {
          bc[v] += weight * d;
        } else if (gamma_s > 0.0) {
          // Derived pendant DAGs: dependency of each pendant on its host.
          // Undirected pendants are reachable from the host, so the pair
          // (pendant, pendant) must be excluded (-1); a boundary-AP host
          // additionally separates the pendant from alpha(s) outside
          // targets.
          double self = d;
          if (!g.directed()) self -= 1.0;
          if (s_is_ap) self += static_cast<double>(sg.alpha[s]);
          bc[s] += gamma_s * self;
        }
      });
  scratch.reset_touched(g);
  // Unreachable boundary APs keep their Phase-0 seeds; clear them too.
  for (Vertex a : sg.boundary_aps) delta[a] = 0.0;
}

void flush_kernel_tallies(std::uint64_t sources, std::uint64_t traversed_arcs) {
  MetricsRegistry& m = metrics();
  m.counter("bc.apgre.sources").add(sources);
  m.counter("bc.apgre.traversed_arcs").add(traversed_arcs);
}

}  // namespace

std::uint64_t apgre_subgraph_cost(const Subgraph& sg) {
  return std::max<EdgeId>(sg.num_arcs(), 1) * sg.roots.size();
}

// --------------------------------------------------------------------------
// Scoring: every (sub-graph, root-batch) piece becomes a task running the
// serial kernel on the work-stealing scheduler
// (support/sched/scheduler.hpp). A sub-graph carrying at least
// 1/(2 * workers) of the decomposition's cost (arcs * roots, summed over
// every sub-graph) splits into about 4 * workers root batches, which is
// how the inner level of the paper's two-level parallelism is supplied;
// every other sub-graph is one piece, and pieces cheaper than 1/(64 *
// workers) of the cost share a task. Each piece accumulates into its own
// local-id buffer, and a split sub-graph's pieces are summed in root
// order, so contributions depend on the worker count alone, never on
// which worker ran what. A single task runs inline on the caller.
// --------------------------------------------------------------------------

std::vector<std::vector<double>> apgre_subgraph_scores(
    const Decomposition& dec, std::span<const std::size_t> subgraphs,
    WorkStealingScheduler& scheduler, ApgreStats* stats,
    std::uint64_t total_cost) {
  const auto workers = static_cast<std::size_t>(scheduler.num_workers());
  if (total_cost == 0) {
    for (const Subgraph& sg : dec.subgraphs) {
      total_cost += apgre_subgraph_cost(sg);
    }
  }
  // Integer costs: the split is the same whichever way the total was kept.
  const auto total = static_cast<double>(total_cost);

  struct Piece {
    std::size_t k;  ///< index into `subgraphs`
    std::size_t root_begin;
    std::size_t root_end;
    double cost;    ///< ~arcs * roots, for largest-first distribution
  };
  // Pieces of one sub-graph are contiguous and in root order.
  std::vector<Piece> pieces;
  for (std::size_t k = 0; k < subgraphs.size(); ++k) {
    const Subgraph& sg = dec.subgraphs[subgraphs[k]];
    const std::size_t roots = sg.roots.size();
    const auto cost = static_cast<double>(apgre_subgraph_cost(sg));
    const std::size_t grain =
        cost * 2.0 * static_cast<double>(workers) >= total
            ? std::max<std::size_t>(1, roots / (4 * workers))
            : roots;
    for (std::size_t b = 0; b < roots; b += grain) {
      const std::size_t e = std::min(roots, b + grain);
      pieces.push_back({k, b, e, cost * static_cast<double>(e - b) /
                                     static_cast<double>(roots)});
    }
  }

  // Tasks: a piece costing at least `pack` runs alone; cheaper pieces are
  // packed, in order, into tasks of about `pack`, so a decomposition of
  // many tiny blocks pays one scheduler task per pack, not per block.
  struct Task {
    std::size_t begin;  ///< pieces [begin, end)
    std::size_t end;
    double cost;
  };
  const double pack = total / (64.0 * static_cast<double>(workers));
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (tasks.empty() || tasks.back().cost >= pack || pieces[i].cost >= pack) {
      tasks.push_back({i, i + 1, pieces[i].cost});
    } else {
      tasks.back().end = i + 1;
      tasks.back().cost += pieces[i].cost;
    }
  }

  std::vector<std::vector<double>> piece_bc(pieces.size());
  // Per-slot kernel scratch. A scheduler run needs num_slots() of them:
  // external participant threads get slots beyond the pool workers.
  const bool inline_run = tasks.size() <= 1;
  std::vector<detail::BrandesScratch> scratch(
      inline_run ? 1 : static_cast<std::size_t>(scheduler.num_slots()));
  // Each piece scores into its own buffer, whichever task carries it.
  const auto score_task = [&](const Task& t, int slot) {
    detail::BrandesScratch& sc = scratch[static_cast<std::size_t>(slot)];
    for (std::size_t i = t.begin; i < t.end; ++i) {
      const Piece& p = pieces[i];
      const Subgraph& sg = dec.subgraphs[subgraphs[p.k]];
      sc.ensure(sg.num_vertices(), sg.num_arcs());
      piece_bc[i].assign(sg.num_vertices(), 0.0);
      for (std::size_t r = p.root_begin; r < p.root_end; ++r) {
        subgraph_source_serial(sg, sg.roots[r], sc, piece_bc[i]);
      }
    }
  };

  SchedulerStats run_stats;
  Timer run_timer;
  if (inline_run) {
    // No scheduler round trip (and no span: local batches into one small
    // block run at thousands per second).
    if (!tasks.empty()) score_task(tasks[0], 0);
  } else {
    APGRE_TRACE_SPAN("apgre/rest_bc");
    // Largest tasks first: run() deals tasks round-robin, and thieves
    // steal from the victim's old end, so big work spreads out before the
    // tail.
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task& a, const Task& b) { return a.cost > b.cost; });
    std::vector<WorkStealingScheduler::Task> runs;
    runs.reserve(tasks.size());
    for (const Task& t : tasks) {
      runs.push_back([&score_task, &t](int slot) { score_task(t, slot); });
    }
    run_stats = scheduler.run(std::move(runs));
  }
  const double run_seconds = run_timer.seconds();
  for (const detail::BrandesScratch& sc : scratch) {
    if (sc.sources != 0) flush_kernel_tallies(sc.sources, sc.traversed_arcs);
  }

  std::vector<std::vector<double>> contrib(subgraphs.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    std::vector<double>& out = contrib[pieces[i].k];
    if (pieces[i].root_begin == 0) {
      out = std::move(piece_bc[i]);
      continue;
    }
    for (std::size_t v = 0; v < out.size(); ++v) out[v] += piece_bc[i][v];
  }
  // Root-less sub-graphs contribute nothing.
  for (std::size_t k = 0; k < subgraphs.size(); ++k) {
    if (contrib[k].empty()) {
      contrib[k].assign(dec.subgraphs[subgraphs[k]].num_vertices(), 0.0);
    }
  }

  if (stats != nullptr) {
    stats->rest_bc_seconds = run_seconds;
    stats->num_batch_tasks = 0;
    stats->num_subgraph_tasks = 0;
    for (const Piece& p : pieces) {
      const std::size_t roots = dec.subgraphs[subgraphs[p.k]].roots.size();
      if (p.root_end - p.root_begin != roots) {
        ++stats->num_batch_tasks;
      } else {
        ++stats->num_subgraph_tasks;
      }
    }
    stats->sched_tasks = run_stats.tasks;
    stats->sched_steals = run_stats.steals;
    stats->sched_idle_seconds = run_stats.idle_seconds;
  }
  return contrib;
}

std::shared_ptr<const PeelResult> apgre_peel(
    const CsrGraph& g, const PartitionOptions& opts,
    std::shared_ptr<const PeelResult> reuse) {
  if (g.directed() || !opts.total_redundancy) return nullptr;
  if (reuse != nullptr && reuse->num_vertices == g.num_vertices()) {
    return reuse;
  }
  return std::make_shared<const PeelResult>(two_core_peel(g));
}

ApgrePreparation prepare_apgre(const CsrGraph& g, const PartitionOptions& opts,
                               WorkStealingScheduler& sched,
                               std::shared_ptr<const PeelResult> reuse,
                               ApgreStats* stats) {
  ApgrePreparation prep;
  double peel_seconds = 0.0;
  double partition_seconds = 0.0;
  double reach_seconds = 0.0;
  std::optional<CsrGraph> core;
  {
    ScopedTimer t(peel_seconds);
    prep.peel = apgre_peel(g, opts, std::move(reuse));
    if (prep.peel != nullptr && prep.peel->num_peeled > 0) {
      core.emplace(peeled_core_reduction(g, *prep.peel));
    }
  }
  const CsrGraph& base = core ? *core : g;
  // Anchors stand in for their peeled subtrees as derived pendant
  // multiplicities (gamma + weighted reach), so no kernel ever traverses
  // the fringe.
  const std::vector<Vertex>* weights =
      core ? &prep.peel->anchor_weight : nullptr;
  PartitionOptions key = opts;
  key.compute_reach = false;
  {
    APGRE_TRACE_SPAN("apgre/decompose");
    ScopedTimer t(partition_seconds);
    prep.dec = decompose(base, key, sched);
    if (weights != nullptr) inject_pendant_weights(prep.dec, *weights);
  }
  {
    APGRE_TRACE_SPAN("apgre/reach");
    ScopedTimer t(reach_seconds);
    compute_reach_counts(base, prep.dec, key.reach, weights, sched);
  }
  if (stats != nullptr) {
    stats->peel_seconds = peel_seconds;
    stats->partition_seconds = partition_seconds;
    stats->reach_seconds = reach_seconds;
  }
  return prep;
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

std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, ApgreStats* stats,
    WorkStealingScheduler& scheduler,
    std::vector<std::vector<double>>* contributions) {
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
  std::vector<std::size_t> all(dec.subgraphs.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::vector<double>> contrib =
      apgre_subgraph_scores(dec, all, scheduler, &local);
  // Sub-graphs overlap only at articulation points; scatter-summing in
  // sub-graph order keeps the scores a function of the contributions.
  std::vector<double> bc(g.num_vertices(), 0.0);
  for (std::size_t i = 0; i < dec.subgraphs.size(); ++i) {
    const Subgraph& sg = dec.subgraphs[i];
    for (Vertex v = 0; v < sg.num_vertices(); ++v) {
      bc[sg.to_global[v]] += contrib[i][v];
    }
  }
  if (contributions != nullptr) *contributions = std::move(contrib);
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
  return bc;
}

}  // namespace apgre
