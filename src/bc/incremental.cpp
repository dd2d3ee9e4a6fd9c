#include "bc/incremental.hpp"

#include <utility>

#include "graph/mutate.hpp"
#include "support/error.hpp"

namespace apgre {

IncrementalBc::IncrementalBc(CsrGraph graph, BcOptions opts)
    : graph_(std::move(graph)),
      opts_(std::move(opts)),
      solver_(graph_.graph()) {
  opts_.algorithm = Algorithm::kApgre;
  opts_.undirected_halving = false;
  solver_.enable_contribution_tracking();
  const BcResult result = solver_.solve(opts_);
  APGRE_REQUIRE(result.status.ok(), result.status.message);
}

void IncrementalBc::resolve_full() {
  solver_.rebind(graph());
  const BcResult result = solver_.solve(opts_);
  APGRE_ASSERT(result.status.ok());
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
    if (solver_.apply_local_batch(graph_.unfolded(), ingested.survivors) > 0) {
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
  graph_.replace(with_pendant_attached(graph(), host));
  resolve_full();
  ++stats_.pendant_attaches;
  return pendant;
}

void IncrementalBc::detach_vertex(Vertex v) {
  APGRE_ASSERT(v < graph().num_vertices());
  UpdateRequest batch;
  for (const Vertex w : graph().out_neighbors(v)) {
    batch.ops.push_back(EdgeOp{v, w, /*insert=*/false});
  }
  if (graph().directed()) {
    for (const Vertex u : graph().in_neighbors(v)) {
      batch.ops.push_back(EdgeOp{u, v, /*insert=*/false});
    }
  }
  if (!batch.ops.empty()) apply_batch(batch);
}

}  // namespace apgre
