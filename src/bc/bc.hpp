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
  kCoarse,        ///< source-parallel, per-slot buffers (`async` stand-in)
  kHybrid,        ///< direction-optimising BFS (Beamer; Ligra's hybrid)
  kApgre,         ///< the paper's contribution
  kAlgebraic,     ///< 64-wide batched Brandes (Buluc-Gilbert style)
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
/// "algebraic"/"batched", "sampling"). Parsing throws OptionError on
/// unknown names.
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
  /// decomposition, and the decomposition is deterministic given options).
  BcResult solve(const BcOptions& opts = {});

  const CsrGraph& graph() const { return *g_; }

  /// The cached decomposition, or nullptr before the first APGRE solve.
  /// The pointer is stable across cache-hit solves (tests key on this).
  /// With PartitionOptions::peel_two_core the decomposition covers the
  /// core-only reduction — anchors carrying their peeled subtrees as
  /// derived pendant multiplicities — not the full graph (same vertex-id
  /// space).
  const Decomposition* decomposition() const { return dec_.get(); }

  /// The cached 2-core peel, or nullptr when peeling is off / not solved
  /// yet. Shared so the service can hand one snapshot-wide peel to every
  /// warm session (adopt_peel).
  std::shared_ptr<const PeelResult> peel() const { return peel_; }

  /// Inject a precomputed peel of the *current* graph (the service stores
  /// one per snapshot so warm sessions skip re-peeling). Adopting the
  /// pointer already held is a no-op; a different one invalidates the
  /// cached decomposition, which was built on a different reduction.
  void adopt_peel(std::shared_ptr<const PeelResult> peel);

  /// Point the session at a different graph snapshot (the service layer
  /// calls this after a structural dynamic update). Drops the cached
  /// decomposition: the next APGRE solve re-decomposes. `g` must outlive
  /// the Solver, like the constructor argument.
  void rebind(const CsrGraph& g);

  /// Opt in to the per-sub-graph contribution store. The next APGRE solve
  /// additionally records each sub-graph's local score vector (serial
  /// kernel, so contributions are deterministic) and their scatter-sum over
  /// `to_global` — which equals the APGRE scores, since sub-graphs compose
  /// additively. While the store is valid, repeat APGRE solves with the
  /// same partition options serve the cached scores without re-scoring
  /// (counter "bc.solver.score_reuses"), and apply_local_batch() can
  /// re-score the blocks a local batch touched in place. Tracked scores match the untracked
  /// scoring phase up to floating-point accumulation order.
  void enable_contribution_tracking();

  /// The store's unhalved full-graph APGRE scores, or nullptr while no
  /// valid store exists (tracking disabled, no APGRE solve yet, or
  /// invalidated by rebind / changed partition options). When the session
  /// peels, these are already re-expanded to full-graph scores (the
  /// closed-form corrections are constant under local updates, so the
  /// per-block subtract/re-add arithmetic preserves them).
  const std::vector<double>* tracked_scores() const {
    return store_valid_ ? &tracked_scores_ : nullptr;
  }

  /// Localized dynamic update (iCentral-style), the session's one update
  /// method: `g` must equal the previous graph with every op in `ops`
  /// applied (coalesced — at most one op per edge; a single edit is a batch
  /// of one), and the batch must have been classified local as a whole
  /// (BlockCutQueries::classify_batch) against the previous graph, so the
  /// block-cut tree, the grouping and every reach count survive by
  /// construction. Groups the ops by cached sub-graph and re-scores each
  /// affected sub-graph exactly once, however many ops landed in it: the
  /// contribution subtract / splice-all / re-score (serial kernel) /
  /// add-back cycle runs per *block*, not per edge. Returns the number of
  /// sub-graphs re-scored (>= 1 on the localized path, one
  /// "bc.solver.local_recomputes" tick each). Returns 0 after falling back
  /// to a plain rebind() — full re-decomposition on the next solve — when
  /// no valid store exists, when a peeled session sees an op incident to a
  /// peeled-forest vertex (the peel analysis is invalidated), or when an
  /// op's endpoints lie outside every cached sub-graph. Violating the
  /// locality precondition silently corrupts later scores — classify first.
  std::size_t apply_local_batch(const CsrGraph& g,
                                const std::vector<EdgeOp>& ops);

 private:
  void build_store();
  void refresh_top_subgraph();

  const CsrGraph* g_;
  std::unique_ptr<Decomposition> dec_;
  PartitionOptions dec_key_;
  // 2-core peel state (dec_key_.peel_two_core): the peel of the current
  // graph and the flat reduction the decomposition was built on. reduced_
  // is null when peeling is off, bypassed (directed), or removed nothing —
  // scoring then runs on *g_ directly.
  std::shared_ptr<const PeelResult> peel_;
  std::unique_ptr<CsrGraph> reduced_;
  // Contribution store (enable_contribution_tracking): per-sub-graph local
  // score vectors and their scatter-sum. Invariant while store_valid_:
  // tracked_scores_[w] == sum over sub-graphs i containing w of
  // contrib_[i][local id of w], computed on the *current* sub-graph arcs —
  // plus, when the session peels, the constant closed-form expansion
  // (corrections at anchors, overwritten scores at peeled vertices, whose
  // per-block contributions are exactly zero).
  bool track_ = false;
  bool store_valid_ = false;
  std::vector<std::vector<double>> contrib_;
  std::vector<double> tracked_scores_;
};

/// One-shot betweenness centrality: a thin wrapper constructing a Solver
/// for a single solve.
BcResult betweenness(const CsrGraph& g, const BcOptions& opts = {});

}  // namespace apgre
