// iCentral-style incremental betweenness over one evolving graph.
//
// IncrementalBc owns a MutableGraph (bcc/mutable_graph.hpp) and a tracked
// Solver, and keeps exact BC scores current across edge batches and
// pendant vertex attach/detach. apply_batch() is the one edge-update
// method; a single edit is a batch of one. Each batch runs the shared
// ingest step (coalesce, classify against the cached block-cut tree,
// record the edits, patch the classifier or fold and drop it), then:
//
//   local      — the batch is provably confined to its blocks; the Solver's
//                contribution store re-runs Brandes inside each affected
//                block only (with the cached alpha/beta peripheral
//                weights), once per block, and re-sums the block's vertices
//                from the store. No re-decomposition happens
//                ("bcc.decompositions" does not move), and the full CSR is
//                not edited: the edits stay pending until graph() or a
//                structural batch folds them ("graph.folds").
//   structural — the block-cut tree may change shape (or the graph is
//                directed, where classification is conservative); one full
//                re-decomposition + solve for the whole batch.
//
// Either way the scores are the Solver's contribution store, bitwise equal
// to a cold APGRE solve of the current graph at the same options. Pendant
// attach re-solves the grown graph; detach is a batch deleting every edge
// of the vertex.
//
// Scores follow the ordered-pair convention (no undirected halving), the
// same as brandes_bc() — callers wanting conventional undirected BC halve
// them. A rejected batch (duplicate insert, absent delete, self-loop)
// throws apgre::Error *before* any state changes. Not thread-safe; wrap in
// a mutex to share across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bc/bc.hpp"
#include "bcc/mutable_graph.hpp"
#include "bcc/queries.hpp"
#include "graph/csr.hpp"
#include "graph/update.hpp"
#include "support/error.hpp"

namespace apgre {

/// How each update was routed; the localized-path counters are the whole
/// point, so tests pin them.
struct IncrementalStats {
  /// Surviving ops of local batches, by direction.
  std::uint64_t local_inserts = 0;
  std::uint64_t local_deletes = 0;
  std::uint64_t pendant_attaches = 0;
  /// Full re-decomposition + solve fallbacks (structural updates and
  /// pendant attaches). A downgraded batch counts once, however many ops
  /// it carried.
  std::uint64_t structural_resolves = 0;
  /// apply_batch totals, accumulated across batches (same fields as the
  /// per-batch BatchStats it returns).
  std::uint64_t batches = 0;
  std::uint64_t batch_edges = 0;
  std::uint64_t coalesced_away = 0;
  std::uint64_t blocks_resolved = 0;
  std::uint64_t batch_downgrades = 0;
};

class IncrementalBc {
 public:
  /// Takes ownership of `graph` and solves once (not counted in stats()).
  /// `opts` tunes the APGRE solves (partition options, threads); the
  /// algorithm is forced to kApgre and halving to off. Throws Error on
  /// invalid options.
  explicit IncrementalBc(CsrGraph graph, BcOptions opts = {});

  /// The current graph; folds the pending edits of local batches first.
  const CsrGraph& graph() const { return graph_.graph(); }
  /// Current exact scores, ordered-pair convention, length num_vertices():
  /// the Solver's tracked scores, which every method keeps valid.
  const std::vector<double>& scores() const {
    const std::vector<double>* tracked = solver_.tracked_scores();
    APGRE_ASSERT(tracked != nullptr);
    return *tracked;
  }
  const IncrementalStats& stats() const { return stats_; }

  /// Apply a timestamped batch of edge inserts/deletes and bring scores
  /// current: the shared ingest step, then either re-score each affected
  /// block exactly once (all-local batch; blocks_resolved counts them) or
  /// fall back to a single re-decomposition + solve for the entire batch
  /// (batch_downgrades = 1 — never one per op). An illegal op rejects the
  /// batch with apgre::Error ("arc already present", "arc not present",
  /// ...) before any state change. A batch that coalesces to nothing is a
  /// legal no-op. Returns the per-batch stats; stats() keeps running
  /// totals.
  BatchStats apply_batch(const UpdateRequest& batch);

  /// Attach a fresh degree-1 vertex to `host` (arc pendant -> host for
  /// directed graphs); returns the new vertex id (= old num_vertices()).
  /// The vertex count changes, so this re-solves once (a structural
  /// resolve); later local batches stay local.
  Vertex attach_pendant(Vertex host);

  /// Remove every arc incident to `v`: one apply_batch deleting them all,
  /// which isolating a vertex always makes structural. The vertex stays as
  /// an isolated id with score 0. No-op when already isolated.
  void detach_vertex(Vertex v);

 private:
  void resolve_full();

  MutableGraph graph_;
  BcOptions opts_;
  // Bound to graph_'s snapshot object; re-pointed (apply_local_batch or
  // rebind) right after every snapshot change, before it is read again.
  // graph_ hands out no snapshot handle, so every fold edits the snapshot
  // in place and the bound address stays the same. Its arcs lag the
  // pending edits of local batches, which only a solve would read: every
  // re-solve rebinds to graph(), which folds first. It tracks
  // contributions, and its store, which scores() returns, is valid after
  // every public method.
  Solver solver_;
  IncrementalStats stats_;
};

}  // namespace apgre
