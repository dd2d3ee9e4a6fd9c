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
//                 (graph/update.hpp coalesce_batch).
//   2. classify — grade the survivors against the block-cut tree as a
//                 whole, one survival check per affected block
//                 (BlockCutQueries::classify_batch). The classifier is
//                 built on first use; directed graphs never build one and
//                 always grade structural.
//   3. apply    — edit the snapshot's CSR arrays in place when no one
//                 else holds it (graph/update.hpp apply_edge_ops_in_place:
//                 same address, no second graph alive); when a copy handed
//                 out by snapshot() is still alive, edit a copy instead and
//                 swap it in, so every holder keeps the graph it was given
//                 (copy-on-write).
//   4. patch or drop — a local batch leaves the tree intact, so the
//                 classifier's block edge multisets are patched per op; a
//                 structural batch drops the classifier, rebuilt on the
//                 next ingest.
//
// Scoring is not part of the step: the owner re-scores the affected blocks
// of its tracked Solver (Solver::apply_local_batch) or re-solves, eagerly
// (IncrementalBc) or lazily with each request's options (the service).
// Not thread-safe; the service holds its per-graph mutex around ingest()
// and around every snapshot() call, which is what makes the "no one else
// holds it" test sound: no copy can appear while ingest() runs.
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
  /// the batch was rejected or cancelled itself out; the snapshot did not
  /// change then.
  std::vector<EdgeOp> survivors;
  /// Summed vertex count of a local batch's affected blocks (its blast
  /// radius); 0 for structural or empty batches.
  Vertex affected_sources = 0;

  bool ok() const { return status.ok(); }
  /// The snapshot changed (edited in place, or a new one swapped in).
  bool applied() const { return !survivors.empty(); }
  /// The block-cut tree may have changed; cached decompositions are stale.
  bool structural() const { return stats.batch_downgrades != 0; }
};

class MutableGraph {
 public:
  explicit MutableGraph(CsrGraph graph);

  /// A shared handle on the current snapshot. While any handle is alive the
  /// snapshot is never mutated: ingest() and replace() swap in a new one,
  /// so a holder keeps a consistent graph and pointer identity stays a
  /// sound freshness test. With no handle alive, ingest() edits the
  /// snapshot in place (its address does not change).
  std::shared_ptr<const CsrGraph> snapshot() const { return snapshot_; }
  const CsrGraph& graph() const { return *snapshot_; }

  /// Coalesce, classify, apply and patch-or-drop one batch (file comment).
  IngestResult ingest(const UpdateRequest& request);

  /// Swap in a successor produced outside ingest() (pendant attach, vertex
  /// detach). The classifier is dropped: the tree may have changed.
  void replace(CsrGraph next);

 private:
  /// True when no snapshot() handle is alive, so the snapshot may be
  /// edited in place.
  bool unshared() const;

  std::shared_ptr<CsrGraph> snapshot_;
  std::unique_ptr<BlockCutQueries> queries_;
};

}  // namespace apgre
