// One evolving graph and its single write path.
//
// A MutableGraph owns a CSR snapshot plus the block-cut classifier built on
// it, and ingest() is the one place an edge batch changes them. Both owners
// of an evolving graph run it: IncrementalBc (bc/incremental.hpp) and the
// service's per-graph entry (service/service.hpp). One batch flows through
// four steps:
//
//   1. coalesce — cancel insert/delete pairs on the same edge, dedupe
//                 repeats, order survivors by timestamp; an illegal op
//                 rejects the whole batch before anything changes
//                 (graph/update.hpp coalesce_batch, against the snapshot
//                 with the pending edits of step 3 applied).
//   2. classify — grade the survivors against the block-cut tree as a
//                 whole, one survival check per affected block
//                 (BlockCutQueries::classify_batch). The classifier is
//                 built on first use; directed graphs never build one and
//                 always grade structural.
//   3. record   — add the survivors to the pending edits: edge -> present
//                 after the edits, an entry only where that differs from
//                 the snapshot's arrays, so an op that reverses a pending
//                 edit erases it. A local batch leaves the CSR arrays as
//                 they are: its cost depends on the blocks it touches, not
//                 on |V| + |E|.
//   4. patch or fold — a local batch leaves the tree intact, so the
//                 classifier's block edge multisets are patched per op; a
//                 structural batch folds every pending edit into the
//                 snapshot and drops the classifier, rebuilt on the next
//                 ingest.
//
// A fold is one CSR edit of everything pending. It edits the snapshot's
// arrays in place when no one else holds it (graph/update.hpp
// apply_edge_ops_in_place: same address, no second graph alive); when a
// copy handed out by snapshot() is still alive, it edits a copy instead and
// swaps it in, so every holder keeps the graph it was given
// (copy-on-write). A structural batch folds, and so does every read of the
// full graph: snapshot(), graph() and replace() fold first (counter
// "graph.folds", one tick per fold that applied anything).
//
// Scoring is not part of the step: the owner re-scores the affected blocks
// of its tracked Solver (Solver::apply_local_batch) or re-solves, eagerly
// (IncrementalBc) or lazily with each request's options (the service).
// Not thread-safe, the const readers included, since they fold; the
// service holds its per-graph mutex around ingest() and around every
// snapshot() call, which is what makes the "no one else holds it" test
// sound: no copy can appear while a fold runs.
#pragma once

#include <memory>
#include <vector>

#include "bcc/queries.hpp"
#include "graph/csr.hpp"
#include "graph/update.hpp"
#include "support/error.hpp"

namespace apgre {

/// Outcome of one ingest step.
struct IngestResult {
  /// Why coalescing rejected the batch; nothing changed when !ok().
  Status status;
  /// batch_edges and coalesced_away always; blocks_resolved is the number
  /// of affected blocks of a local batch, batch_downgrades is 1 for a
  /// structural one.
  BatchStats stats;
  /// Net ops applied, at most one per edge, in timestamp order. Empty when
  /// the batch was rejected or cancelled itself out; the graph did not
  /// change then.
  std::vector<EdgeOp> survivors;
  /// Summed vertex count of a local batch's affected blocks (its blast
  /// radius); 0 for structural or empty batches.
  Vertex affected_sources = 0;

  bool ok() const { return status.ok(); }
  /// The graph changed: the survivors are pending (local) or folded into
  /// the snapshot (structural).
  bool applied() const { return !survivors.empty(); }
  /// The block-cut tree may have changed; cached decompositions are stale.
  bool structural() const { return stats.batch_downgrades != 0; }
};

class MutableGraph {
 public:
  explicit MutableGraph(CsrGraph graph);

  /// A shared handle on the current snapshot, pending edits folded in
  /// first. While any handle is alive the snapshot is never mutated: a
  /// fold or replace() swaps in a new one, so a holder keeps a consistent
  /// graph and pointer identity stays a sound freshness test. With no
  /// handle alive, a fold edits the snapshot in place (its address does
  /// not change).
  std::shared_ptr<const CsrGraph> snapshot() const;
  /// The current graph, pending edits folded in first.
  const CsrGraph& graph() const;

  /// The snapshot object without a fold: its arcs lag the pending edits.
  /// While no snapshot() handle is alive, every fold edits this object in
  /// place, so an owner that hands out no handle (IncrementalBc) can bind
  /// a Solver to it and keep the binding across local batches, whose
  /// re-scores read no arc of the full graph.
  const CsrGraph& unfolded() const { return *snapshot_; }

  /// Net edits ingested but not yet folded into the snapshot's arrays.
  const PendingEdits& pending() const { return pending_; }

  /// Coalesce, classify, record and patch-or-fold one batch (file comment).
  IngestResult ingest(const UpdateRequest& request);

  /// Swap in a successor produced outside ingest() (pendant attach, vertex
  /// detach), built from graph(). The pending edits are dropped with the
  /// snapshot they applied to (graph() folded them into `next`'s source),
  /// and so is the classifier: the tree may have changed.
  void replace(CsrGraph next);

 private:
  /// True when no snapshot() handle is alive, so the snapshot may be
  /// edited in place.
  bool unshared() const;
  /// Apply every pending edit to the snapshot in one CSR edit, in place
  /// when unshared, on a swapped-in copy otherwise. Const because the
  /// graph it describes does not change, only where its arcs are stored.
  void fold() const;

  mutable std::shared_ptr<CsrGraph> snapshot_;
  mutable PendingEdits pending_;
  std::unique_ptr<BlockCutQueries> queries_;
};

}  // namespace apgre
