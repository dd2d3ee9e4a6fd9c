// APGRE — Articulation-Points-Guided Redundancy Elimination for betweenness
// centrality (the paper's contribution, §3-§4).
//
// Pipeline (paper Figure 5):
//   1. decompose the graph along articulation points (bcc/partition.hpp),
//   2. count alpha/beta for every boundary articulation point (bcc/reach.hpp),
//   3. run a per-sub-graph Brandes variant that accumulates the four
//      dependency types (in2in, in2out, out2in, out2out) in one backward
//      sweep and merges them into global BC scores, with
//        * coarse-grained parallelism across sub-graphs and
//        * fine-grained level-synchronous parallelism inside large ones
//      (the paper's two-level parallelism).
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
  /// Sub-graphs holding at least this fraction of all arcs are "large":
  /// they split into root batches, or, with too few roots to split, run the
  /// fine-grained (level-synchronous) kernel. The rest are one serial task
  /// each.
  double fine_grain_fraction = 0.125;
  /// Sub-graphs with fewer arcs than this never use inner parallelism.
  EdgeId fine_grain_min_arcs = 1u << 14;
  /// Use a direction-optimising (Beamer-style top-down/bottom-up) forward
  /// phase inside the fine-grained kernel — the composition of the paper's
  /// decomposition with the `hybrid` baseline's BFS. Exactness is
  /// unaffected; pays off on low-diameter sub-graphs with fat frontiers.
  bool hybrid_inner = false;
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
  /// BC of the dedicated sub-graphs, too large to root-split, that ran the
  /// fine-grained level-synchronous kernel (summed task time).
  double top_bc_seconds = 0.0;
  /// Wall time of the work-stealing run over every scoring task (the
  /// dedicated sub-graphs run inside it too).
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

  /// Two-level scheduler breakdown. The adaptive kernel choice
  /// (SchedulerOptions::adaptive_kernel) is recorded here:
  /// `num_fine_subgraphs` ran whole as dedicated tasks with the
  /// fine-grained level-synchronous kernel (nested parallel_for),
  /// `num_batch_tasks` + `num_subgraph_tasks` ran the serial kernel on
  /// scheduler workers.
  std::size_t num_fine_subgraphs = 0;  ///< dedicated level-synchronous runs
  std::size_t num_batch_tasks = 0;     ///< root-batch tasks of split sub-graphs
  std::size_t num_subgraph_tasks = 0;  ///< whole-sub-graph serial tasks
  std::uint64_t sched_tasks = 0;       ///< tasks executed by the scheduler
  std::uint64_t sched_steals = 0;      ///< successful work steals
  double sched_idle_seconds = 0.0;     ///< summed worker idle time
};

/// Full APGRE run: decomposition + reach counting + scoring, on the
/// scheduler select_scheduler(sched) picks.
std::vector<double> apgre_bc(const CsrGraph& g, const ApgreOptions& opts = {},
                             ApgreStats* stats = nullptr,
                             const SchedulerOptions& sched = {});

/// The same on a scheduler the caller already resolved; `sched` still
/// supplies the grain and adaptive-kernel knobs.
std::vector<double> apgre_bc(const CsrGraph& g, const ApgreOptions& opts,
                             ApgreStats* stats, const SchedulerOptions& sched,
                             WorkStealingScheduler& scheduler);

/// Scoring only, on a caller-supplied decomposition whose alpha/beta reach
/// counts are already filled in (compute_reach_counts). This is the Solver
/// fast path (bc/bc.hpp): decompose once, score many times. When `stats` is
/// non-null its partition_seconds / reach_seconds are kept as-is (the
/// caller reports what *it* spent — zero on a cache hit) and every other
/// field is overwritten; total_seconds covers partition + reach + scoring.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, const ApgreOptions& opts = {},
    ApgreStats* stats = nullptr, const SchedulerOptions& sched = {});

/// Scoring on a scheduler the caller already resolved (select_scheduler):
/// the Solver picks one per solve and hands it to the reach pass and here.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, const ApgreOptions& opts,
    ApgreStats* stats, const SchedulerOptions& sched,
    WorkStealingScheduler& scheduler);

/// BC scores of one sub-graph in local ids (paper Algorithm 2, BCinSG),
/// with the serial kernel. The contribution store re-scores blocks with it
/// (deterministic accumulation order); tests use it as the oracle for the
/// fine-grained kernel below.
std::vector<double> apgre_subgraph_bc(const Subgraph& sg);

/// Sub-graph BC with the fine-grained level-synchronous kernel: the
/// per-level loops run as WorkStealingScheduler::parallel_for calls, so
/// concurrent invocations from different threads are safe. `hybrid_inner`
/// enables the direction-optimising forward phase. The scheduler comes
/// from select_scheduler(sched). Exposed for the differential tests
/// against the serial kernel.
std::vector<double> apgre_subgraph_bc_scheduled(const Subgraph& sg,
                                                bool hybrid_inner = false,
                                                const SchedulerOptions& sched = {});

}  // namespace apgre
