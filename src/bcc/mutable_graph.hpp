// One evolving graph and its single write path.
//
// A MutableGraph owns an immutable CSR snapshot plus the block-cut
// classifier built on it, and ingest() is the one place an edge batch
// changes them. Both owners of an evolving graph run it: IncrementalBc
// (bc/incremental.hpp) and the service's per-graph entry
// (service/service.hpp). One batch flows through four steps:
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
//   3. apply    — build the successor snapshot in one merge pass while
//                 the previous one is still alive (graph/update.hpp
//                 apply_edge_ops), then swap it in (the previous snapshot
//                 is released here unless a caller still holds it).
//   4. patch or drop — a local batch leaves the tree intact, so the
//                 classifier's block edge multisets are patched per op; a
//                 structural batch drops the classifier, rebuilt on the
//                 next ingest.
//
// Scoring is not part of the step: the owner re-scores the affected blocks
// of its tracked Solver (Solver::apply_local_batch) or re-solves, eagerly
// (IncrementalBc) or lazily with each request's options (the service).
// Not thread-safe; the service holds its per-graph mutex around ingest().
#pragma once

#include <memory>
#include <vector>

#include "bcc/parallel_bicomp.hpp"
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
  /// A new snapshot was swapped in.
  bool applied() const { return !survivors.empty(); }
  /// The block-cut tree may have changed; cached decompositions are stale.
  bool structural() const { return stats.batch_downgrades != 0; }
};

class MutableGraph {
 public:
  /// `decomposition` picks the biconnectivity pass the classifier is built
  /// from (the grades do not depend on it).
  explicit MutableGraph(
      std::shared_ptr<const CsrGraph> snapshot,
      ParallelDecomposition decomposition = ParallelDecomposition::kAuto);

  /// The current snapshot. Immutable; ingest() and replace() swap in a new
  /// one, so holders of the old pointer keep a consistent graph.
  const std::shared_ptr<const CsrGraph>& snapshot() const { return snapshot_; }
  const CsrGraph& graph() const { return *snapshot_; }

  /// Coalesce, classify, apply and patch-or-drop one batch (file comment).
  IngestResult ingest(const UpdateRequest& request);

  /// Swap in a successor produced outside ingest() (pendant attach, vertex
  /// detach). The classifier is dropped: the tree may have changed.
  void replace(CsrGraph next);

 private:
  std::shared_ptr<const CsrGraph> snapshot_;
  ParallelDecomposition decomposition_;
  std::unique_ptr<BlockCutQueries> queries_;
};

}  // namespace apgre
