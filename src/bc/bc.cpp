#include "bc/bc.hpp"

#include <array>
#include <numeric>
#include <optional>
#include <utility>

#include "bc/brandes.hpp"
#include "bc/coarse.hpp"
#include "bc/level_sync.hpp"
#include "bc/naive.hpp"
#include "bc/sampling.hpp"
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
std::vector<double> run_sampling(const CsrGraph& g, const BcOptions& opts,
                                 WorkStealingScheduler&, BcResult&) {
  return sampled_bc(g, opts.num_samples, opts.seed);
}

// The registry. Order matches the Algorithm enum so algorithm_info() can
// index directly; a static_assert below guards the correspondence.
constexpr std::size_t kNumAlgorithms = 9;
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
     "source-parallel with per-chunk buffers", &run_coarse,
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
  if (opts.threads < 0 || opts.threads > kMaxSolveThreads) {
    return Status::invalid_option("threads must be in [0, " +
                                  std::to_string(kMaxSolveThreads) + "], got " +
                                  std::to_string(opts.threads));
  }
  if (opts.scheduler.threads < 0 ||
      opts.scheduler.threads > kMaxSolveThreads) {
    return Status::invalid_option("scheduler.threads must be in [0, " +
                                  std::to_string(kMaxSolveThreads) + "], got " +
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
    // Session fast path: peel + decompose + count reach once, score per
    // solve.
    PartitionOptions key = opts.apgre.partition;
    key.compute_reach = false;
    ApgreStats stats;  // peel/partition/reach seconds stay zero on a hit
    if (dec_ == nullptr || !(dec_key_ == key)) {
      store_valid_ = false;
      // A peel of the current graph outlives a change of partition options.
      ApgrePreparation prep = prepare_apgre(g, key, scheduler, peel_, &stats);
      dec_ = std::make_unique<Decomposition>(std::move(prep.dec));
      peel_ = std::move(prep.peel);
      dec_key_ = key;
    }
    if (peel_ != nullptr) {
      stats.peeled_vertices = peel_->num_peeled;
      stats.core_fraction = peel_->core_fraction();
    }
    if (track_ && store_valid_) {
      metrics().counter("bc.solver.score_reuses").add();
      result.scores = tracked_scores_;
      stats.num_subgraphs = dec_->subgraphs.size();
    } else {
      // Tracked and untracked solves score through the same call, so their
      // scores are bitwise equal; a tracked one also keeps the
      // per-sub-graph contributions.
      result.scores = apgre_bc_with_decomposition(
          g, *dec_, &stats, scheduler, track_ ? &contrib_ : nullptr);
      if (peel_ != nullptr) expand_peeled_scores(*peel_, result.scores);
      if (track_) {
        APGRE_TRACE_SPAN("apgre/build_store");
        build_store(result.scores, scheduler.num_workers());
      }
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
  store_valid_ = false;
  contrib_.clear();
  tracked_scores_.clear();
  member_offsets_.clear();
  members_.clear();
}

void Solver::enable_contribution_tracking() {
  track_ = true;
  // Any scores computed before opting in have no per-sub-graph breakdown;
  // the next APGRE solve builds the store from scratch.
  store_valid_ = false;
}

void Solver::build_store(const std::vector<double>& scores, int workers) {
  const Decomposition& dec = *dec_;
  // `scores` come already expanded when the session peels: the store's
  // invariant in the header.
  tracked_scores_ = scores;
  store_workers_ = workers;
  total_cost_ = 0;
  for (const Subgraph& sg : dec.subgraphs) {
    total_cost_ += apgre_subgraph_cost(sg);
  }

  // Routing index: a counting sort of every (sub-graph, local id) pair by
  // global id, filled in sub-graph order so each vertex's run is sorted.
  member_offsets_.assign(static_cast<std::size_t>(dec.num_vertices) + 1, 0);
  for (const Subgraph& sg : dec.subgraphs) {
    for (const Vertex w : sg.to_global) ++member_offsets_[w + 1];
  }
  std::partial_sum(member_offsets_.begin(), member_offsets_.end(),
                   member_offsets_.begin());
  members_.resize(member_offsets_.back());
  std::vector<std::size_t> cursor(member_offsets_.begin(),
                                  member_offsets_.end() - 1);
  for (std::size_t sgi = 0; sgi < dec.subgraphs.size(); ++sgi) {
    const Subgraph& sg = dec.subgraphs[sgi];
    for (Vertex local = 0; local < sg.num_vertices(); ++local) {
      members_[cursor[sg.to_global[local]]++] = Membership{sgi, local};
    }
  }
  store_valid_ = true;
}

double Solver::resum(Vertex w) const {
  double score = 0.0;
  for (std::size_t m = member_offsets_[w]; m < member_offsets_[w + 1]; ++m) {
    score += contrib_[members_[m].subgraph][members_[m].local];
  }
  if (peel_ != nullptr && peel_->num_peeled > 0 && peel_->in_core[w]) {
    score += peel_->core_correction[w];
  }
  return score;
}

void Solver::repick_top_subgraph(std::span<const std::size_t> touched,
                                 EdgeId top_arcs_before) {
  const std::vector<Subgraph>& subgraphs = dec_->subgraphs;
  std::size_t& top = dec_->top_subgraph;
  if (subgraphs[top].num_arcs() < top_arcs_before) {
    // The top lost arcs, so an untouched sub-graph may overtake it: rescan.
    top = 0;
    for (std::size_t i = 1; i < subgraphs.size(); ++i) {
      if (top_subgraph_beats(subgraphs, i, top)) top = i;
    }
    return;
  }
  // A local batch moves no vertex, so every untouched sub-graph still loses
  // to a top that did not shrink: only the touched ones can overtake it.
  for (const std::size_t sgi : touched) {
    if (top_subgraph_beats(subgraphs, sgi, top)) top = sgi;
  }
}

std::size_t Solver::apply_local_batch(const CsrGraph& g,
                                      const std::vector<EdgeOp>& ops) {
  if (dec_ == nullptr || !track_ || !store_valid_ || ops.empty()) {
    rebind(g);
    return 0;
  }
  APGRE_ASSERT(!g.directed() && g.num_vertices() == dec_->num_vertices);
  if (peel_ != nullptr && peel_->num_peeled > 0) {
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

  // Route every op through the membership index *before* mutating
  // anything, so a routing miss falls back with the store still intact.
  struct Route {
    std::size_t subgraph = 0;
    EdgeOp local;  ///< the op in the sub-graph's local ids
  };
  std::vector<Route> routes;
  routes.reserve(ops.size());
  for (const EdgeOp& op : ops) {
    const Membership* a = members_.data() + member_offsets_[op.u];
    const Membership* const a_end = members_.data() + member_offsets_[op.u + 1];
    const Membership* b = members_.data() + member_offsets_[op.v];
    const Membership* const b_end = members_.data() + member_offsets_[op.v + 1];
    // Both runs are in sub-graph order: walk them to the sub-graph they
    // share. Two blocks share at most one vertex, so two endpoints have at
    // most one sub-graph in common.
    while (a != a_end && b != b_end && a->subgraph != b->subgraph) {
      if (a->subgraph < b->subgraph) {
        ++a;
      } else {
        ++b;
      }
    }
    if (a == a_end || b == b_end) {
      // Endpoints outside every cached sub-graph contradict the locality
      // precondition; re-decompose rather than score a stale cache.
      rebind(g);
      return 0;
    }
    routes.push_back({a->subgraph, EdgeOp{a->local, b->local, op.insert}});
  }
  std::stable_sort(routes.begin(), routes.end(),
                   [](const Route& x, const Route& y) {
                     return x.subgraph < y.subgraph;
                   });

  // One edit-all per affected sub-graph — the per-block cost is paid once
  // for the whole batch, not once per edge — and one scorer call for all
  // of them. The summed cost and the top sub-graph move by the touched
  // sub-graphs only.
  const EdgeId top_arcs = dec_->subgraphs[dec_->top_subgraph].num_arcs();
  std::vector<std::size_t> touched;
  std::vector<EdgeOp> local_ops;
  for (std::size_t r = 0; r < routes.size();) {
    const std::size_t sgi = routes[r].subgraph;
    local_ops.clear();
    for (; r < routes.size() && routes[r].subgraph == sgi; ++r) {
      local_ops.push_back(routes[r].local);
    }
    Subgraph& sg = dec_->subgraphs[sgi];
    total_cost_ -= apgre_subgraph_cost(sg);
    apply_edge_ops_in_place(sg.graph, local_ops);
    total_cost_ += apgre_subgraph_cost(sg);
    touched.push_back(sgi);
  }
  // The worker count of the solve that built the store. The split takes
  // each touched sub-graph's share of the whole decomposition's cost, as
  // in a cold solve, so a batch into one small block is one task and runs
  // inline without a scheduler round trip.
  std::optional<WorkStealingScheduler> private_sched;
  std::vector<std::vector<double>> fresh = apgre_subgraph_scores(
      *dec_, touched,
      select_scheduler(SchedulerOptions{.threads = store_workers_},
                       private_sched),
      nullptr, total_cost_);
  for (std::size_t k = 0; k < touched.size(); ++k) {
    contrib_[touched[k]] = std::move(fresh[k]);
  }
  // Re-sum after every contribution is stored: an articulation point may
  // sit in two touched sub-graphs.
  for (const std::size_t sgi : touched) {
    for (const Vertex w : dec_->subgraphs[sgi].to_global) {
      tracked_scores_[w] = resum(w);
    }
  }
  metrics().counter("bc.solver.local_recomputes").add(touched.size());
  repick_top_subgraph(touched, top_arcs);
  g_ = &g;
  return touched.size();
}

BcResult betweenness(const CsrGraph& g, const BcOptions& opts) {
  Solver solver(g);
  return solver.solve(opts);
}

}  // namespace apgre
