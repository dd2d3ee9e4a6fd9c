// Public entry point of the APGRE betweenness-centrality library.
//
// One-shot:
//   #include "bc/bc.hpp"
//   apgre::BcResult r = apgre::betweenness(graph);            // APGRE
//   apgre::BcOptions o; o.algorithm = apgre::Algorithm::kBrandesSerial;
//   apgre::BcResult serial = apgre::betweenness(graph, o);    // baseline
//
// Session-style (amortises the BCC decomposition across solves):
//   apgre::Solver solver(graph);
//   apgre::BcResult a = solver.solve();            // decomposes + scores
//   apgre::BcResult b = solver.solve(other_opts);  // reuses the decomposition
//
// betweenness() and Solver::solve() never throw on invalid options — they
// report through BcResult::status. Malformed *input* (unreadable files,
// inconsistent graphs) still throws apgre::Error at the call site that
// touches the input.
//
// Scores follow the directed-BC convention: BC(v) = sum over ordered pairs
// (s, t), s != v != t, of sigma_st(v) / sigma_st. For symmetric
// (undirected) graphs each unordered pair is therefore counted twice; set
// BcOptions::undirected_halving to report the conventional undirected
// score. All algorithms in the family produce identical scores (up to
// floating-point accumulation order); they differ only in strategy, which
// is exactly what the paper's evaluation compares.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bc/apgre.hpp"
#include "bcc/partition.hpp"
#include "graph/csr.hpp"
#include "graph/transform.hpp"
#include "graph/update.hpp"
#include "support/error.hpp"

namespace apgre {

/// The algorithm family of the paper's evaluation (§5.1) plus the naive
/// reference and the sampling extension.
enum class Algorithm {
  kNaive,         ///< O(|V|^3) definition-based oracle (tests only)
  kBrandesSerial, ///< Brandes 2001; the paper's `serial` baseline
  kParallelPreds, ///< level-synchronous, predecessor lists (Bader-Madduri)
  kParallelSuccs, ///< level-synchronous, successor scans (Madduri et al.)
  kLockFree,      ///< pull-based level-synchronous, no atomics (Tan et al.)
  kCoarse,        ///< source-parallel, per-chunk buffers (`async` stand-in)
  kHybrid,        ///< direction-optimising BFS (Beamer; Ligra's hybrid)
  kApgre,         ///< the paper's contribution
  kSampling,      ///< Brandes-Pich source sampling (approximate)
};

struct BcOptions;
struct BcResult;

/// One row of the algorithm registry: the single source of truth tying an
/// Algorithm value to its names, kernel entry point, and capability flags.
/// algorithm_from_name / algorithm_name / betweenness dispatch, the CLI
/// help text, the oracle's exact set, and the benches' comparison set are
/// all derived from this table — adding an algorithm means adding one row.
struct AlgorithmInfo {
  Algorithm algorithm = Algorithm::kApgre;
  const char* name = nullptr;     ///< canonical name ("apgre", "serial", ...)
  const char* alias = nullptr;    ///< accepted alternative name, or nullptr
  const char* summary = nullptr;  ///< one-line description for --help output
  /// Kernel entry point. May fill result fields beyond scores (kApgre
  /// writes apgre_stats); the dispatcher owns timing / halving / mteps.
  /// `sched` is the solve's scheduler (select_scheduler); parallel kernels
  /// run every loop on it.
  std::vector<double> (*kernel)(const CsrGraph& g, const BcOptions& opts,
                                WorkStealingScheduler& sched,
                                BcResult& result) = nullptr;
  bool exact = true;       ///< scores match Brandes exactly (oracle set)
  bool parallel = false;   ///< runs its loops on the solve's scheduler
  bool comparison = false; ///< member of the paper's Tables 2/3 set
  bool test_only = false;  ///< reference oracle, excluded from benches
};

/// Every registered algorithm, in enum order.
std::span<const AlgorithmInfo> algorithm_registry();

/// Registry row for `algorithm` (throws OptionError on values outside the
/// registry, e.g. a cast from a corrupted int).
const AlgorithmInfo& algorithm_info(Algorithm algorithm);

/// Parse / print algorithm names from the registry ("apgre", "serial",
/// "preds", "succs", "lockfree", "coarse"/"async", "hybrid", "naive",
/// "sampling"). Parsing throws OptionError on unknown names.
Algorithm algorithm_from_name(const std::string& name);
std::string algorithm_name(Algorithm algorithm);

struct BcOptions {
  Algorithm algorithm = Algorithm::kApgre;
  /// Worker count for every parallel kernel, APGRE included (unless
  /// scheduler.threads overrides it); 0 uses the shared pool sized to the
  /// hardware.
  int threads = 0;
  /// Halve the scores of symmetric graphs (conventional undirected BC).
  bool undirected_halving = false;
  /// APGRE decomposition options (ignored by other algorithms).
  ApgreOptions apgre;
  /// The solve's scheduler (support/sched/scheduler.hpp); its worker count
  /// applies to every parallel kernel.
  SchedulerOptions scheduler;
  /// kSampling: number of sampled sources (0 = sqrt(|V|)) and seed.
  Vertex num_samples = 0;
  std::uint64_t seed = 1;
};

/// Largest worker count validate_options accepts for `threads` and
/// `scheduler.threads`. A count that differs from the shared pool's builds
/// a private pool of that many OS threads, and apgre_serve takes the count
/// off the wire, so it is capped.
inline constexpr int kMaxSolveThreads = 1024;

/// Check `opts` for inconsistencies without running anything. The same
/// validation runs at the top of betweenness() / Solver::solve(), which
/// report it through BcResult::status instead of throwing.
Status validate_options(const BcOptions& opts);

struct BcResult {
  /// Why the run produced no scores; ok() on success. Invalid options are
  /// reported here (never thrown).
  Status status;
  std::vector<double> scores;
  /// Filled when algorithm == kApgre (phase breakdown, decomposition info).
  ApgreStats apgre_stats;
  /// Wall time of the scoring computation in seconds.
  double seconds = 0.0;
  /// Paper §5.1 traversal-rate metric: TEPS_BC = n * m / t, reported in
  /// millions (m counts stored arcs).
  double mteps = 0.0;
};

/// Session-style interface over one graph. The first APGRE solve computes
/// the BCC decomposition plus the alpha/beta/gamma reach counts and caches
/// them; later solves whose PartitionOptions match reuse the cache and only
/// re-run the scoring phase (their stats report zero partition / reach
/// seconds). Changing PartitionOptions re-decomposes. Non-APGRE algorithms
/// pass straight through. Not thread-safe; one Solver per thread.
class Solver {
 public:
  /// `g` is referenced, not copied — it must outlive the Solver.
  explicit Solver(const CsrGraph& g) : g_(&g) {}

  /// Compute BC. Identical scores to betweenness(g, opts) — byte-for-byte,
  /// cache hit or miss (the scoring phase is deterministic given the
  /// decomposition and the worker count, and the decomposition is
  /// deterministic given options).
  BcResult solve(const BcOptions& opts = {});

  const CsrGraph& graph() const { return *g_; }

  /// The cached decomposition, or nullptr before the first APGRE solve.
  /// The pointer is stable across cache-hit solves (tests key on this).
  /// When the solve peeled (prepare_apgre) the decomposition covers the
  /// core-only reduction — anchors carrying their peeled subtrees as
  /// derived pendant multiplicities — not the full graph (same vertex-id
  /// space).
  const Decomposition* decomposition() const { return dec_.get(); }

  /// The 2-core peel the cached decomposition was built on, or nullptr
  /// when the peel does not apply (directed graph, total_redundancy off)
  /// or nothing is solved yet.
  std::shared_ptr<const PeelResult> peel() const { return peel_; }

  /// Point the session at a different graph snapshot (the service layer
  /// calls this after a structural dynamic update). Drops the cached
  /// decomposition: the next APGRE solve re-decomposes. `g` must outlive
  /// the Solver, like the constructor argument.
  void rebind(const CsrGraph& g);

  /// Opt in to the per-sub-graph contribution store. The next APGRE solve
  /// additionally keeps each sub-graph's local score vector, as the one
  /// scorer (apgre_subgraph_scores) returns it on the solve's scheduler,
  /// and their scatter-sum over `to_global` — which equals the APGRE
  /// scores, since sub-graphs compose additively. While the store is
  /// valid, repeat APGRE solves with the same partition options serve the
  /// cached scores without re-scoring (counter "bc.solver.score_reuses"),
  /// and apply_local_batch() can re-score the blocks a local batch touched
  /// in place. A tracked solve's scores are bitwise equal to an untracked
  /// solve's at the same worker count.
  void enable_contribution_tracking();

  /// The store's unhalved full-graph APGRE scores, or nullptr while no
  /// valid store exists (tracking disabled, no APGRE solve yet, or
  /// invalidated by rebind / changed partition options). When the session
  /// peels, these are already re-expanded to full-graph scores. After any
  /// number of local batches they are bitwise equal to a cold solve of the
  /// current graph at the same options and worker count (see the store's
  /// invariant below).
  const std::vector<double>* tracked_scores() const {
    return store_valid_ ? &tracked_scores_ : nullptr;
  }

  /// Localized dynamic update (iCentral-style), the session's one update
  /// method: `g` must be the graph with every op in `ops` applied
  /// (coalesced — at most one op per edge; a single edit is a batch of
  /// one), and the batch must have been classified local as a whole
  /// (BlockCutQueries::classify_batch) against the previous graph, so the
  /// block-cut tree, the sub-graphs and every reach count survive by
  /// construction. Routes each op to the one sub-graph (block) holding
  /// both its endpoints through a global vertex -> (sub-graph,
  /// local id) index built with the store (O(memberships of its endpoints),
  /// not O(|V|)), groups the ops by sub-graph and re-scores each affected
  /// sub-graph exactly once, however many ops landed in it: one
  /// apply_edge_ops_in_place on the sub-graph's own CSR, then one
  /// apgre_subgraph_scores call for all of them, with the worker count of
  /// the solve that built the store. Each vertex of a re-scored sub-graph
  /// is then re-summed from the store (resum). The decomposition's summed
  /// scoring cost and its top sub-graph are updated from the touched
  /// sub-graphs alone (a full rescan only when the top lost arcs), so the
  /// call costs what the touched blocks cost, not O(#sub-graphs).
  /// The arcs of `g` may lag `ops` until its owner folds them
  /// (MutableGraph::unfolded): this call keeps `g` as the session's graph
  /// but reads none of its arcs. Only solve() reads them, so such an owner
  /// folds before the next solve, after this call's zero path too.
  /// Returns the number of sub-graphs re-scored (>= 1 on the localized
  /// path, one "bc.solver.local_recomputes" tick each). Returns 0 after
  /// falling back to a plain rebind() — full re-decomposition on the next
  /// solve — when no valid store exists, when a peeled session sees an op
  /// incident to a peeled-forest vertex (the peel analysis is
  /// invalidated), or when an op's endpoints lie outside every cached
  /// sub-graph. Violating the locality precondition silently corrupts
  /// later scores — classify first.
  std::size_t apply_local_batch(const CsrGraph& g,
                                const std::vector<EdgeOp>& ops);

 private:
  void build_store(const std::vector<double>& scores, int workers);
  /// Vertex w's score as the cold solve forms it from the store: 0.0 plus
  /// w's contributions in sub-graph order, plus the peel's correction at a
  /// core vertex.
  double resum(Vertex w) const;
  /// Re-pick dec_->top_subgraph after a local batch edited `touched`,
  /// given the top's arc count before it.
  void repick_top_subgraph(std::span<const std::size_t> touched,
                           EdgeId top_arcs_before);

  const CsrGraph* g_;
  std::unique_ptr<Decomposition> dec_;
  PartitionOptions dec_key_;
  // The peel of the current graph the decomposition was built on
  // (ApgrePreparation::peel): null when the peel does not apply.
  std::shared_ptr<const PeelResult> peel_;
  // Contribution store (enable_contribution_tracking): per-sub-graph local
  // score vectors and their scatter-sum. Invariant while store_valid_:
  // contrib_[i] is sub-graph i's apgre_subgraph_scores on its *current*
  // arcs, and tracked_scores_[w] == resum(w) for every vertex w of a
  // sub-graph, computed in that order with no other rounding step — the
  // same arithmetic as apgre_bc_with_decomposition's scatter-sum followed
  // by expand_peeled_scores, so the store is bitwise a cold solve. A
  // peeled vertex belongs to no sub-graph and keeps its closed-form score.
  bool track_ = false;
  bool store_valid_ = false;
  int store_workers_ = 0;  ///< scheduler workers of the solve that built it
  /// Summed apgre_subgraph_cost over dec_'s sub-graphs, kept current by
  /// local batches; valid with the store.
  std::uint64_t total_cost_ = 0;
  std::vector<std::vector<double>> contrib_;
  std::vector<double> tracked_scores_;
  // Routing index, built by build_store and valid with the store: global
  // vertex w's sub-graph memberships are members_[member_offsets_[w] ..
  // member_offsets_[w + 1]), in sub-graph order. Local batches never change
  // which sub-graphs hold a vertex, so the index outlives them.
  struct Membership {
    std::size_t subgraph = 0;
    Vertex local = 0;
  };
  std::vector<std::size_t> member_offsets_;
  std::vector<Membership> members_;
};

/// One-shot betweenness centrality: a thin wrapper constructing a Solver
/// for a single solve.
BcResult betweenness(const CsrGraph& g, const BcOptions& opts = {});

}  // namespace apgre
