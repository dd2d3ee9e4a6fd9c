// APGRE — Articulation-Points-Guided Redundancy Elimination for betweenness
// centrality (the paper's contribution, §3-§4).
//
// Pipeline (paper Figure 5):
//   0. on undirected graphs, peel the tree fringe down to the 2-core
//      (graph/transform.hpp two_core_peel) — gamma's pendant derivation
//      applied to whole trees,
//   1. decompose the graph along articulation points (bcc/partition.hpp),
//   2. count alpha/beta for every boundary articulation point (bcc/reach.hpp),
//   3. run a per-sub-graph Brandes variant that accumulates the four
//      dependency types (in2in, in2out, out2in, out2out) in one backward
//      sweep and merges them into global BC scores. Every scoring task runs
//      that serial kernel on the work-stealing scheduler: one task per
//      sub-graph (small ones packed together), and root batches of each
//      one carrying a large share of the scoring cost — the batches stand in for the paper's inner
//      level-synchronous parallelism (DESIGN.md, substitutions).
//
// Solver::solve (bc/bc.hpp) owns the whole pipeline; this header exposes
// the preparation step (stages 0-2), the scoring step and the one scorer
// behind it.
//
// Two deliberate corrections to the paper's pseudocode (validated against
// Brandes and the naive oracle; see DESIGN.md §2):
//   * the pendant-derived self term adds alpha(s) when the host is a
//     boundary AP,
//   * for undirected graphs each pendant subtracts 1 from the derived
//     in2in reach (the pendant is itself reachable from its host).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bcc/partition.hpp"
#include "graph/csr.hpp"
#include "graph/transform.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

struct ApgreOptions {
  PartitionOptions partition;
};

/// Phase breakdown and decomposition summary (paper Figure 8 / Table 4).
struct ApgreStats {
  double partition_seconds = 0.0;  ///< biconnected decomposition + sub-graph build
  double reach_seconds = 0.0;      ///< alpha/beta counting
  /// 2-core peel (prepare_apgre): time spent peeling + building the core
  /// reduction, vertices removed, and the surviving core fraction (1.0
  /// when the peel does not apply or removed nothing).
  double peel_seconds = 0.0;
  Vertex peeled_vertices = 0;
  double core_fraction = 1.0;
  /// Always 0: it timed the level-synchronous kernel, which root-batch
  /// tasks replaced. Kept because the benchmark ledger still reads it.
  double top_bc_seconds = 0.0;
  /// Wall time of the work-stealing run over every scoring task.
  double rest_bc_seconds = 0.0;
  double total_seconds = 0.0;

  /// Shape of the decomposition the solve scored: of the 2-core when it
  /// peeled, whose anchors count their peeled subtrees as pendants.
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
  std::size_t num_batch_tasks = 0;     ///< root batches of split sub-graphs
  std::size_t num_subgraph_tasks = 0;  ///< sub-graphs scored whole
  std::uint64_t sched_tasks = 0;       ///< tasks executed by the scheduler
  std::uint64_t sched_steals = 0;      ///< successful work steals
  double sched_idle_seconds = 0.0;     ///< summed worker idle time
};

/// The 2-core peel APGRE runs on `g`: `reuse` when it is non-null and
/// covers g's vertex count (a Solver keeps its graph's peel across a change
/// of partition options), otherwise a fresh two_core_peel(g). Null when the peel does not apply:
/// directed graphs, and opts.total_redundancy off (the peel is pendant
/// derivation, so the switch that turns gamma off turns it off too).
std::shared_ptr<const PeelResult> apgre_peel(
    const CsrGraph& g, const PartitionOptions& opts,
    std::shared_ptr<const PeelResult> reuse = nullptr);

/// A decomposition ready to score, and the peel it was built on.
struct ApgrePreparation {
  /// Covers the core-only reduction of `g` when `peel` removed vertices
  /// (same vertex-id space; anchors carry their peeled subtrees as derived
  /// pendant multiplicities), otherwise `g` itself. Reach counts filled.
  Decomposition dec;
  /// apgre_peel(g, opts, reuse); null when the peel does not apply. Scores
  /// of `dec` become full-graph scores through expand_peeled_scores.
  std::shared_ptr<const PeelResult> peel;
};

/// APGRE's preparation, the one path every solve takes: peel (apgre_peel)
/// → decompose the core reduction → inject_pendant_weights → reach counts
/// weighted by the anchors' multiplicities. opts.compute_reach is ignored
/// (reach always runs, timed on its own). When `stats` is non-null its
/// peel_seconds, partition_seconds and reach_seconds are overwritten.
ApgrePreparation prepare_apgre(
    const CsrGraph& g, const PartitionOptions& opts,
    WorkStealingScheduler& sched = WorkStealingScheduler::shared(),
    std::shared_ptr<const PeelResult> reuse = nullptr,
    ApgreStats* stats = nullptr);

/// Scoring only, on a caller-supplied decomposition whose alpha/beta reach
/// counts are already filled in (compute_reach_counts). This is the Solver
/// fast path (bc/bc.hpp): decompose once, score many times; the full
/// pipeline is betweenness(g, {.apgre = opts}), whose
/// BcResult::apgre_stats carries the phase breakdown. Scoring reads no
/// field of `opts`. When `stats` is non-null its partition_seconds /
/// reach_seconds (and the peel fields) are kept as-is (the caller reports
/// what *it* spent — zero on a cache hit) and every other field is
/// overwritten; total_seconds covers peel + partition + reach + scoring.
/// `g` is the input graph: the work model prices Brandes against its
/// arcs, also when `dec` covers a core reduction.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, const ApgreOptions& opts = {},
    ApgreStats* stats = nullptr, const SchedulerOptions& sched = {});

/// Scoring on a scheduler the caller already resolved (select_scheduler):
/// the Solver picks one per solve and hands it to the reach pass and here.
/// When `contributions` is non-null it receives every sub-graph's local
/// score vector (apgre_subgraph_scores), whose scatter-sum in sub-graph
/// order is the returned scores.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, ApgreStats* stats,
    WorkStealingScheduler& scheduler,
    std::vector<std::vector<double>>* contributions = nullptr);

/// Scoring cost of a sub-graph, the unit of apgre_subgraph_scores' task
/// split: arcs traversed per root (at least 1) times its roots.
std::uint64_t apgre_subgraph_cost(const Subgraph& sg);

/// The one APGRE scorer (paper Algorithm 2, BCinSG, per sub-graph): the
/// contributions of dec.subgraphs[i] for each i in `subgraphs`, in local
/// ids and in that order, scored on `scheduler`. A sub-graph whose cost
/// (apgre_subgraph_cost) is at least 1/(2 * workers) of the whole
/// decomposition's splits into about 4 * workers root batches; every other
/// one is a single piece. Pieces cheaper than 1/(64 * workers) of that cost
/// share a scheduler task, and a call with a single task runs it inline.
/// Bitwise reproducible for a fixed worker count, whatever the steal order.
/// `total_cost` is the whole decomposition's summed cost when the caller
/// keeps it current (the Solver does across local batches), so a call
/// scoring a few sub-graphs costs what they cost; 0 sums it here, one pass
/// over every sub-graph. When `stats` is non-null its rest_bc_seconds,
/// task counts and sched_* fields are overwritten.
std::vector<std::vector<double>> apgre_subgraph_scores(
    const Decomposition& dec, std::span<const std::size_t> subgraphs,
    WorkStealingScheduler& scheduler, ApgreStats* stats = nullptr,
    std::uint64_t total_cost = 0);

}  // namespace apgre
