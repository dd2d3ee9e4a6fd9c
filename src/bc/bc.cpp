#include "bc/bc.hpp"

#include <array>
#include <cmath>
#include <optional>
#include <utility>

#include "bc/algebraic.hpp"
#include "bc/brandes.hpp"
#include "bc/coarse.hpp"
#include "bc/hybrid.hpp"
#include "bc/lockfree.hpp"
#include "bc/naive.hpp"
#include "bc/parallel_preds.hpp"
#include "bc/parallel_succs.hpp"
#include "bc/sampling.hpp"
#include "bcc/reach.hpp"
#include "graph/mutate.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace apgre {

namespace {

// Kernel adapters: one uniform signature per registry row. The dispatcher
// (Solver::solve) owns timing, halving, and mteps; kernels only produce
// scores and, where applicable, extra result fields.

std::vector<double> run_naive(const CsrGraph& g, const BcOptions&,
                              WorkStealingScheduler&, BcResult&) {
  return naive_bc(g);
}
std::vector<double> run_serial(const CsrGraph& g, const BcOptions&,
                               WorkStealingScheduler&, BcResult&) {
  return brandes_bc(g);
}
std::vector<double> run_preds(const CsrGraph& g, const BcOptions&,
                              WorkStealingScheduler& sched, BcResult&) {
  return parallel_preds_bc(g, sched);
}
std::vector<double> run_succs(const CsrGraph& g, const BcOptions&,
                              WorkStealingScheduler& sched, BcResult&) {
  return parallel_succs_bc(g, sched);
}
std::vector<double> run_lockfree(const CsrGraph& g, const BcOptions&,
                                 WorkStealingScheduler& sched, BcResult&) {
  return lockfree_bc(g, sched);
}
std::vector<double> run_coarse(const CsrGraph& g, const BcOptions&,
                               WorkStealingScheduler& sched, BcResult&) {
  return coarse_bc(g, sched);
}
std::vector<double> run_hybrid(const CsrGraph& g, const BcOptions&,
                               WorkStealingScheduler& sched, BcResult&) {
  return hybrid_bc(g, sched);
}
// Solver::solve runs kApgre itself, on its cached decomposition, and never
// reaches this row's kernel; it delegates there for any direct caller.
std::vector<double> run_apgre(const CsrGraph& g, const BcOptions& opts,
                              WorkStealingScheduler&, BcResult& result) {
  BcResult solved = Solver(g).solve(opts);
  result.apgre_stats = solved.apgre_stats;
  return std::move(solved.scores);
}
std::vector<double> run_algebraic(const CsrGraph& g, const BcOptions&,
                                  WorkStealingScheduler&, BcResult&) {
  return algebraic_bc(g);
}
std::vector<double> run_sampling(const CsrGraph& g, const BcOptions& opts,
                                 WorkStealingScheduler&, BcResult&) {
  return sampled_bc(g, opts.num_samples, opts.seed);
}

// The registry. Order matches the Algorithm enum so algorithm_info() can
// index directly; a static_assert below guards the correspondence.
constexpr std::size_t kNumAlgorithms = 10;
const std::array<AlgorithmInfo, kNumAlgorithms> kRegistry = {{
    {Algorithm::kNaive, "naive", nullptr,
     "O(V^3) definition-based oracle (tests only)", &run_naive,
     /*exact=*/true, /*parallel=*/false, /*comparison=*/false,
     /*test_only=*/true},
    {Algorithm::kBrandesSerial, "serial", nullptr,
     "Brandes 2001, the serial baseline", &run_serial,
     /*exact=*/true, /*parallel=*/false, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kParallelPreds, "preds", nullptr,
     "level-synchronous with predecessor lists (Bader-Madduri)", &run_preds,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kParallelSuccs, "succs", nullptr,
     "level-synchronous with successor scans (Madduri et al.)", &run_succs,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kLockFree, "lockfree", nullptr,
     "pull-based level-synchronous, no atomics (Tan et al.)", &run_lockfree,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kCoarse, "coarse", "async",
     "source-parallel with per-slot buffers", &run_coarse,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kHybrid, "hybrid", nullptr,
     "direction-optimising BFS (Beamer)", &run_hybrid,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kApgre, "apgre", nullptr,
     "articulation-point-guided redundancy elimination (the paper)",
     &run_apgre,
     /*exact=*/true, /*parallel=*/true, /*comparison=*/true,
     /*test_only=*/false},
    {Algorithm::kAlgebraic, "algebraic", "batched",
     "64-wide batched Brandes (Buluc-Gilbert style)", &run_algebraic,
     /*exact=*/true, /*parallel=*/false, /*comparison=*/false,
     /*test_only=*/false},
    {Algorithm::kSampling, "sampling", nullptr,
     "Brandes-Pich source sampling (approximate)", &run_sampling,
     /*exact=*/false, /*parallel=*/false, /*comparison=*/false,
     /*test_only=*/false},
}};

static_assert(static_cast<std::size_t>(Algorithm::kSampling) ==
                  kNumAlgorithms - 1,
              "registry must have one row per Algorithm value, in enum order");

}  // namespace

std::span<const AlgorithmInfo> algorithm_registry() { return kRegistry; }

const AlgorithmInfo& algorithm_info(Algorithm algorithm) {
  const auto index = static_cast<std::size_t>(algorithm);
  if (index >= kRegistry.size() || kRegistry[index].algorithm != algorithm) {
    throw OptionError("algorithm value " + std::to_string(index) +
                      " is not in the registry");
  }
  return kRegistry[index];
}

Algorithm algorithm_from_name(const std::string& name) {
  std::string known;
  for (const AlgorithmInfo& info : kRegistry) {
    if (name == info.name || (info.alias != nullptr && name == info.alias)) {
      return info.algorithm;
    }
    if (!known.empty()) known += " | ";
    known += info.name;
  }
  throw OptionError("unknown BC algorithm: " + name + " (expected " + known +
                    ")");
}

std::string algorithm_name(Algorithm algorithm) {
  return algorithm_info(algorithm).name;
}

Status validate_options(const BcOptions& opts) {
  const auto index = static_cast<std::size_t>(opts.algorithm);
  if (index >= kRegistry.size()) {
    return Status::invalid_option("algorithm value " + std::to_string(index) +
                                  " is not in the registry");
  }
  if (opts.threads < 0) {
    return Status::invalid_option("threads must be >= 0, got " +
                                  std::to_string(opts.threads));
  }
  if (opts.scheduler.threads < 0) {
    return Status::invalid_option("scheduler.threads must be >= 0, got " +
                                  std::to_string(opts.scheduler.threads));
  }
  return Status::Ok();
}

BcResult Solver::solve(const BcOptions& opts) {
  BcResult result;
  result.status = validate_options(opts);
  if (!result.status.ok()) return result;

  const CsrGraph& g = *g_;
  // The one scheduler of this solve: every parallel loop below runs on it.
  std::optional<WorkStealingScheduler> private_sched;
  WorkStealingScheduler& scheduler =
      select_scheduler(opts.scheduler, private_sched, opts.threads);
  const AlgorithmInfo& info = algorithm_info(opts.algorithm);
  TraceSpan span(std::string("bc/") + info.name);

  Timer timer;
  if (opts.algorithm == Algorithm::kApgre) {
    // Session fast path: decompose + count reach once, score per solve.
    PartitionOptions key = opts.apgre.partition;
    key.compute_reach = false;
    const bool want_peel = key.peel_two_core && !g.directed();
    ApgreStats stats;  // partition/reach seconds stay zero on a cache hit
    if (dec_ == nullptr || !(dec_key_ == key)) {
      dec_ = std::make_unique<Decomposition>();
      store_valid_ = false;
      reduced_.reset();
      if (want_peel) {
        // Peel once per snapshot; an adopted peel (service) is reused.
        ScopedTimer t(stats.peel_seconds);
        if (peel_ == nullptr || peel_->num_vertices != g.num_vertices()) {
          peel_ = std::make_shared<const PeelResult>(two_core_peel(g));
        }
        if (peel_->num_peeled > 0) {
          reduced_ =
              std::make_unique<CsrGraph>(peeled_core_reduction(g, *peel_));
        }
      }
      const CsrGraph& base = reduced_ != nullptr ? *reduced_ : g;
      {
        APGRE_TRACE_SPAN("apgre/decompose");
        ScopedTimer t(stats.partition_seconds);
        *dec_ = decompose(base, key, scheduler);
        // Weighted core solve: anchors absorb their peeled subtrees as
        // derived pendant multiplicities (gamma + weighted reach), so the
        // kernels never traverse the fringe.
        if (reduced_ != nullptr) {
          inject_pendant_weights(*dec_, peel_->anchor_weight);
        }
      }
      {
        APGRE_TRACE_SPAN("apgre/reach");
        ScopedTimer t(stats.reach_seconds);
        compute_reach_counts(base, *dec_, key.reach,
                             reduced_ != nullptr ? &peel_->anchor_weight
                                                 : nullptr,
                             scheduler);
      }
      dec_key_ = key;
    }
    if (want_peel && peel_ != nullptr) {
      stats.peeled_vertices = peel_->num_peeled;
      stats.core_fraction = peel_->core_fraction();
    }
    if (track_) {
      if (store_valid_) {
        metrics().counter("bc.solver.score_reuses").add();
      } else {
        APGRE_TRACE_SPAN("apgre/build_store");
        ScopedTimer t(stats.rest_bc_seconds);
        build_store();
      }
      result.scores = tracked_scores_;
      stats.num_subgraphs = dec_->subgraphs.size();
    } else {
      const CsrGraph& base = reduced_ != nullptr ? *reduced_ : g;
      result.scores =
          apgre_bc_with_decomposition(base, *dec_, &stats, scheduler);
      if (reduced_ != nullptr) expand_peeled_scores(*peel_, result.scores);
    }
    result.apgre_stats = stats;
  } else {
    result.scores = info.kernel(g, opts, scheduler, result);
  }
  result.seconds = timer.seconds();

  if (opts.undirected_halving && !g.directed()) {
    for (double& score : result.scores) score *= 0.5;
  }

  // Paper §5.1: TEPS_BC = n * m / t, reported in millions.
  if (result.seconds > 0.0) {
    result.mteps = static_cast<double>(g.num_vertices()) *
                   static_cast<double>(g.num_arcs()) / result.seconds / 1e6;
  }
  return result;
}

void Solver::rebind(const CsrGraph& g) {
  g_ = &g;
  dec_.reset();
  dec_key_ = PartitionOptions{};
  peel_.reset();
  reduced_.reset();
  store_valid_ = false;
  contrib_.clear();
  tracked_scores_.clear();
}

void Solver::adopt_peel(std::shared_ptr<const PeelResult> peel) {
  if (peel == peel_) return;
  peel_ = std::move(peel);
  // The cached decomposition (if any) was built on a different reduction.
  dec_.reset();
  dec_key_ = PartitionOptions{};
  reduced_.reset();
  store_valid_ = false;
}

void Solver::enable_contribution_tracking() {
  track_ = true;
  // Any scores computed before opting in have no per-sub-graph breakdown;
  // the next APGRE solve builds the store from scratch.
  store_valid_ = false;
}

void Solver::build_store() {
  const Decomposition& dec = *dec_;
  contrib_.assign(dec.subgraphs.size(), {});
  tracked_scores_.assign(g_->num_vertices(), 0.0);
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    contrib_[sgi] = apgre_subgraph_bc(sg);
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      tracked_scores_[sg.to_global[local]] += contrib_[sgi][local];
    }
  }
  // Peeled sessions keep the store expanded (see the tracked_scores_
  // invariant in the header): the expansion commutes with the per-block
  // subtract/re-add arithmetic of apply_local_batch.
  if (reduced_ != nullptr) expand_peeled_scores(*peel_, tracked_scores_);
  store_valid_ = true;
}

void Solver::refresh_top_subgraph() {
  // Same criterion as decompose() (arcs, then vertices, first maximum);
  // a full rescan because a deletion can demote the current top.
  std::size_t best = 0;
  for (std::size_t i = 1; i < dec_->subgraphs.size(); ++i) {
    const Subgraph& sg = dec_->subgraphs[i];
    const Subgraph& cur = dec_->subgraphs[best];
    if (sg.num_arcs() > cur.num_arcs() ||
        (sg.num_arcs() == cur.num_arcs() &&
         sg.num_vertices() > cur.num_vertices())) {
      best = i;
    }
  }
  dec_->top_subgraph = best;
}

std::size_t Solver::apply_local_batch(const CsrGraph& g,
                                      const std::vector<EdgeOp>& ops) {
  if (dec_ == nullptr || !track_ || !store_valid_ || ops.empty()) {
    rebind(g);
    return 0;
  }
  APGRE_ASSERT(!g.directed() && g.num_vertices() == dec_->num_vertices);
  if (reduced_ != nullptr) {
    for (const EdgeOp& op : ops) {
      if (!peel_->in_core[op.u] || !peel_->in_core[op.v]) {
        // An update incident to the peeled forest invalidates the peel
        // analysis (classify_batch grades these structural; this is
        // defence in depth).
        rebind(g);
        return 0;
      }
    }
  }

  // Route every op to the sub-graph storing its edge *before* mutating
  // anything, so a routing miss falls back with the store still intact.
  std::vector<std::vector<std::size_t>> per_sg(dec_->subgraphs.size());
  std::vector<std::pair<Vertex, Vertex>> local_ids(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const EdgeOp& op = ops[i];
    bool routed = false;
    for (std::size_t sgi = 0; sgi < dec_->subgraphs.size() && !routed; ++sgi) {
      const Subgraph& sg = dec_->subgraphs[sgi];
      Vertex lu = kInvalidVertex;
      Vertex lv = kInvalidVertex;
      for (Vertex local = 0; local < sg.num_vertices(); ++local) {
        if (sg.to_global[local] == op.u) lu = local;
        if (sg.to_global[local] == op.v) lv = local;
      }
      if (lu == kInvalidVertex || lv == kInvalidVertex) continue;
      // Articulation endpoints belong to several sub-graph groups, but every
      // block's edges materialise in exactly one of them — a deletion must
      // patch the group that actually stores the arc. (Insert endpoints are
      // non-APs by the classify contract, so the first group wins.)
      if (!op.insert && !has_arc(sg.graph, lu, lv)) continue;
      per_sg[sgi].push_back(i);
      local_ids[i] = {lu, lv};
      routed = true;
    }
    if (!routed) {
      // Endpoints outside every cached sub-graph contradict the locality
      // precondition; re-decompose rather than score a stale cache.
      rebind(g);
      return 0;
    }
  }

  // One contribution subtract / splice-all / re-score / add-back cycle per
  // affected sub-graph — the per-block cost is paid once for the whole
  // batch, not once per edge.
  std::size_t resolved = 0;
  for (std::size_t sgi = 0; sgi < dec_->subgraphs.size(); ++sgi) {
    if (per_sg[sgi].empty()) continue;
    Subgraph& sg = dec_->subgraphs[sgi];
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      tracked_scores_[sg.to_global[local]] -= contrib_[sgi][local];
    }
    EdgeList arcs = sg.graph.arcs();
    for (const std::size_t i : per_sg[sgi]) {
      const auto [lu, lv] = local_ids[i];
      if (ops[i].insert) {
        arcs.push_back(Edge{lu, lv});
        arcs.push_back(Edge{lv, lu});
      } else {
        std::erase_if(arcs, [lu, lv](const Edge& e) {
          return (e.src == lu && e.dst == lv) || (e.src == lv && e.dst == lu);
        });
      }
    }
    sg.graph = CsrGraph::from_edges(sg.num_vertices(), std::move(arcs),
                                    /*directed=*/false);
    contrib_[sgi] = apgre_subgraph_bc(sg);
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      double& score = tracked_scores_[sg.to_global[local]];
      score += contrib_[sgi][local];
      // Clamp subtract/re-add cancellation noise on exact zeros.
      if (std::abs(score) < 1e-9) score = std::max(score, 0.0);
    }
    ++resolved;
    metrics().counter("bc.solver.local_recomputes").add();
  }
  if (reduced_ != nullptr) {
    // Every endpoint is 2-core (guard above) and local batches leave the
    // peel cascade untouched, so the reduction tracks g by the same splices.
    for (const EdgeOp& op : ops) {
      *reduced_ = op.insert ? with_edge_inserted(*reduced_, op.u, op.v)
                            : with_edge_removed(*reduced_, op.u, op.v);
    }
  }
  refresh_top_subgraph();
  g_ = &g;
  return resolved;
}

BcResult betweenness(const CsrGraph& g, const BcOptions& opts) {
  Solver solver(g);
  return solver.solve(opts);
}

}  // namespace apgre
