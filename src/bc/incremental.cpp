#include "bc/incremental.hpp"

#include <cmath>
#include <utility>

#include "bc/brandes.hpp"
#include "graph/bfs.hpp"
#include "graph/mutate.hpp"
#include "support/error.hpp"

namespace apgre {

namespace {

/// Clamp subtract/re-add cancellation noise on exact zeros (the DynamicBc
/// idiom): closed-form deltas cancel to ~1e-13 where the true score is 0.
void clamp_zeros(std::vector<double>& scores) {
  for (double& score : scores) {
    if (std::abs(score) < 1e-9) score = std::max(score, 0.0);
  }
}

}  // namespace

IncrementalBc::IncrementalBc(CsrGraph graph, BcOptions opts)
    : graph_(std::move(graph)),
      opts_(std::move(opts)),
      solver_(graph_.graph()) {
  opts_.algorithm = Algorithm::kApgre;
  opts_.undirected_halving = false;
  solver_.enable_contribution_tracking();
  BcResult result = solver_.solve(opts_);
  APGRE_REQUIRE(result.status.ok(), result.status.message);
  scores_ = std::move(result.scores);
}

void IncrementalBc::resolve_full() {
  solver_.rebind(graph());
  BcResult result = solver_.solve(opts_);
  APGRE_ASSERT(result.status.ok());
  scores_ = std::move(result.scores);
  ++stats_.structural_resolves;
}

BatchStats IncrementalBc::apply_batch(const UpdateRequest& batch) {
  // A rejected batch throws here, before any member changes.
  const IngestResult ingested = graph_.ingest(batch);
  APGRE_REQUIRE(ingested.ok(), ingested.status.message);
  BatchStats out = ingested.stats;
  if (ingested.structural()) {
    // One re-decomposition for the whole batch, however many ops survived.
    resolve_full();
  } else if (ingested.applied()) {
    // No fold: the Solver is bound to the snapshot object, which stays put
    // (graph_ hands out no handle), and a local re-score reads only the
    // sub-graphs' own arcs.
    std::vector<std::size_t> rescored;
    if (solver_.apply_local_batch(graph_.unfolded(), ingested.survivors,
                                  &rescored) > 0) {
      // scores_ equals the store everywhere else: copy only the vertices
      // of the re-scored sub-graphs, not all |V|.
      const std::vector<double>& tracked = *solver_.tracked_scores();
      const Decomposition& dec = *solver_.decomposition();
      for (const std::size_t sgi : rescored) {
        for (const Vertex w : dec.subgraphs[sgi].to_global) {
          scores_[w] = tracked[w];
        }
      }
      for (const EdgeOp& op : ingested.survivors) {
        (op.insert ? stats_.local_inserts : stats_.local_deletes) += 1;
      }
    } else {
      // No valid contribution store to patch — cannot happen after the
      // constructor's tracked solve, but re-solve rather than trust it.
      out.blocks_resolved = 0;
      out.batch_downgrades = 1;
      resolve_full();
    }
  }

  stats_.batches += 1;
  stats_.batch_edges += out.batch_edges;
  stats_.coalesced_away += out.coalesced_away;
  stats_.blocks_resolved += out.blocks_resolved;
  stats_.batch_downgrades += out.batch_downgrades;
  return out;
}

Vertex IncrementalBc::attach_pendant(Vertex host) {
  APGRE_ASSERT(host < graph().num_vertices());
  const Vertex pendant = graph().num_vertices();
  // Closed form (the static pendant metamorphic rule as a delta, evaluated
  // on the pre-attach graph): every vertex gains sides * delta_host(v), the
  // host additionally gains sides * reach(host), the pendant scores 0 —
  // `sides` counting source- and target-side ordered pairs for undirected
  // graphs, source-side only for directed (the arc is pendant -> host).
  const double sides = graph().directed() ? 1.0 : 2.0;
  const std::vector<double> dependency =
      brandes_bc_from_sources(graph(), {host}, sides);
  const auto host_reach = static_cast<double>(reachable_count(graph(), host));
  for (Vertex v = 0; v < graph().num_vertices(); ++v) {
    scores_[v] += dependency[v];
  }
  scores_[host] += sides * host_reach;
  scores_.push_back(0.0);
  // The tree gained a vertex and a bridge block — caches are stale even
  // though the scores are already exact.
  graph_.replace(with_pendant_attached(graph(), host));
  solver_.rebind(graph());
  ++stats_.pendant_attaches;
  return pendant;
}

void IncrementalBc::detach_vertex(Vertex v) {
  APGRE_ASSERT(v < graph().num_vertices());
  const auto out = graph().out_neighbors(v);
  const bool isolated =
      out.empty() && (!graph().directed() || graph().in_neighbors(v).empty());
  if (isolated) return;
  if (!graph().directed() && out.size() == 1) {
    // Undirected pendant: the exact inverse of attach_pendant, evaluated on
    // the post-detach graph (the isolated id contributes nothing there).
    const Vertex host = out[0];
    graph_.replace(with_vertex_isolated(graph(), v));
    const std::vector<double> dependency =
        brandes_bc_from_sources(graph(), {host}, -2.0);
    const auto host_reach = static_cast<double>(reachable_count(graph(), host));
    for (Vertex w = 0; w < graph().num_vertices(); ++w) {
      scores_[w] += dependency[w];
    }
    scores_[host] -= 2.0 * host_reach;
    scores_[v] = 0.0;
    clamp_zeros(scores_);
    solver_.rebind(graph());
    ++stats_.pendant_detaches;
    return;
  }
  // Interior (or directed) vertex: removing its arcs can reshape shortest
  // paths arbitrarily far away — full re-solve.
  graph_.replace(with_vertex_isolated(graph(), v));
  resolve_full();
}

}  // namespace apgre
