// APGRE — Articulation-Points-Guided Redundancy Elimination for betweenness
// centrality (the paper's contribution, §3-§4).
//
// Pipeline (paper Figure 5):
//   1. decompose the graph along articulation points (bcc/partition.hpp),
//   2. count alpha/beta for every boundary articulation point (bcc/reach.hpp),
//   3. run a per-sub-graph Brandes variant that accumulates the four
//      dependency types (in2in, in2out, out2in, out2out) in one backward
//      sweep and merges them into global BC scores. Every scoring task runs
//      that serial kernel on the work-stealing scheduler: one task per
//      small sub-graph, and root batches of each large one — the batches
//      stand in for the paper's inner level-synchronous parallelism
//      (DESIGN.md, substitutions).
//
// Solver::solve (bc/bc.hpp) owns the whole pipeline; this header exposes
// the scoring step and the per-sub-graph kernel.
//
// Two deliberate corrections to the paper's pseudocode (validated against
// Brandes and the naive oracle; see DESIGN.md §2):
//   * the pendant-derived self term adds alpha(s) when the host is a
//     boundary AP,
//   * for undirected graphs each pendant subtracts 1 from the derived
//     in2in reach (the pendant is itself reachable from its host).
#pragma once

#include <vector>

#include "bcc/partition.hpp"
#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

struct ApgreOptions {
  PartitionOptions partition;
};

/// Phase breakdown and decomposition summary (paper Figure 8 / Table 4).
struct ApgreStats {
  double partition_seconds = 0.0;  ///< biconnected decomposition + grouping
  double reach_seconds = 0.0;      ///< alpha/beta counting
  /// 2-core peel preprocessing (PartitionOptions::peel_two_core): time
  /// spent peeling + building the reduction, vertices removed, and the
  /// surviving core fraction (1.0 when peeling was off or removed nothing).
  double peel_seconds = 0.0;
  Vertex peeled_vertices = 0;
  double core_fraction = 1.0;
  /// Always 0: it timed the level-synchronous kernel, which root-batch
  /// tasks replaced. Kept because the benchmark ledger still reads it.
  double top_bc_seconds = 0.0;
  /// Wall time of the work-stealing run over every scoring task.
  double rest_bc_seconds = 0.0;
  double total_seconds = 0.0;

  std::size_t num_subgraphs = 0;
  Vertex num_articulation_points = 0;
  Vertex num_pendants_removed = 0;
  Vertex top_vertices = 0;
  EdgeId top_arcs = 0;
  /// Redundancy work model (Figure 7).
  double partial_redundancy = 0.0;
  double total_redundancy = 0.0;

  /// Scoring-task breakdown: every task runs the serial kernel on a
  /// scheduler worker. `num_fine_subgraphs` is always 0, for the same
  /// reason as top_bc_seconds.
  std::size_t num_fine_subgraphs = 0;
  std::size_t num_batch_tasks = 0;     ///< root-batch tasks of split sub-graphs
  std::size_t num_subgraph_tasks = 0;  ///< whole-sub-graph serial tasks
  std::uint64_t sched_tasks = 0;       ///< tasks executed by the scheduler
  std::uint64_t sched_steals = 0;      ///< successful work steals
  double sched_idle_seconds = 0.0;     ///< summed worker idle time
};

/// Scoring only, on a caller-supplied decomposition whose alpha/beta reach
/// counts are already filled in (compute_reach_counts). This is the Solver
/// fast path (bc/bc.hpp): decompose once, score many times; the full
/// pipeline is betweenness(g, {.apgre = opts}), whose
/// BcResult::apgre_stats carries the phase breakdown. Scoring reads no
/// field of `opts`. When `stats` is non-null its partition_seconds /
/// reach_seconds are kept as-is (the caller reports what *it* spent — zero
/// on a cache hit) and every other field is overwritten; total_seconds
/// covers partition + reach + scoring.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, const ApgreOptions& opts = {},
    ApgreStats* stats = nullptr, const SchedulerOptions& sched = {});

/// Scoring on a scheduler the caller already resolved (select_scheduler):
/// the Solver picks one per solve and hands it to the reach pass and here.
std::vector<double> apgre_bc_with_decomposition(const CsrGraph& g,
                                                const Decomposition& dec,
                                                ApgreStats* stats,
                                                WorkStealingScheduler& scheduler);

/// BC scores of one sub-graph in local ids (paper Algorithm 2, BCinSG),
/// with the serial kernel every scoring task runs. The contribution store
/// re-scores blocks with it (deterministic accumulation order).
std::vector<double> apgre_subgraph_bc(const Subgraph& sg);

}  // namespace apgre
