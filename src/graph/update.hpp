// Batched edge updates: the value types and pure algebra of STINGER-style
// streaming ingest, shared by every layer that thinks in batches
// (bcc/queries classify_batch, bc/incremental apply_batch, the service's
// kUpdateBatch pipeline, apgre_serve's batch_update verb and the ledger's
// caveman_stream workload).
//
// An UpdateBatch is a list of timestamped EdgeOps. coalesce_batch() reduces
// it to its net effect against one graph snapshot: insert/delete pairs on
// the same edge cancel, repeats dedupe, and the survivors come out in
// stable timestamp order with at most one op per edge. Coalescing is also
// where batch validation lives — an op that is redundant against the
// *snapshot* on first touch (inserting a present arc, deleting an absent
// one, self-loops, out-of-range endpoints) rejects the whole batch with a
// Status carrying the same message the single-edge mutate helpers throw,
// so a failed batch provably changed no state. apply_edge_ops_in_place()
// then edits the graph's CSR arrays in place, and apply_edge_ops() runs the
// same edit on a copy.
//
// The binary edge-batch frame ("APGB") is the replay-file format: one frame
// per batch, frames concatenated until EOF, read by apgre_serve's
// path-based batch_update.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "support/error.hpp"

namespace apgre {

/// One timestamped edge operation. `weight` is carried end to end (wire,
/// frames, coalescing) so a weighted stream fails loudly: the BC graphs are
/// unweighted, and non-unit weights are rejected at coalesce time
/// (docs/API.md "Batched streaming ingest").
struct EdgeOp {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  bool insert = true;
  double weight = 1.0;
  /// Stream time; coalescing orders ops by (timestamp, arrival position).
  std::uint64_t timestamp = 0;
};

/// The unified mutation payload of the service API: every edge mutation is
/// a batch, a single update being a batch of size 1 (docs/API.md).
struct UpdateRequest {
  std::vector<EdgeOp> ops;
};

/// Per-batch outcome counters, reported in Response::batch and accumulated
/// into ServiceStats / IncrementalStats. Tests pin blocks_resolved.
struct BatchStats {
  /// Raw ops in the submitted batch (before coalescing).
  std::uint64_t batch_edges = 0;
  /// Ops removed by coalescing (cancelled pairs, deduped repeats).
  std::uint64_t coalesced_away = 0;
  /// Biconnected blocks re-solved by the localized path — one per affected
  /// block, however many ops landed in it. 0 for downgraded batches.
  std::uint64_t blocks_resolved = 0;
  /// 1 when any surviving op was structural and the whole batch fell back
  /// to a single re-decomposition, else 0.
  std::uint64_t batch_downgrades = 0;
};

/// Result of coalescing one batch against a snapshot.
struct CoalesceResult {
  /// Net ops, at most one per edge, stable timestamp order. Empty when the
  /// batch cancels out entirely (a legal no-op).
  std::vector<EdgeOp> survivors;
  /// Ops folded away: batch size minus survivors when status.ok().
  std::uint64_t coalesced_away = 0;
  /// Why the batch was rejected; survivors is empty when !ok(). Messages
  /// match the single-edge mutate helpers ("arc already present", ...).
  Status status;
};

/// Canonical key of the edge an op names: (u, v) for directed graphs,
/// (min, max) for undirected ones, where both orientations are one edge.
inline std::pair<Vertex, Vertex> edge_key(bool directed, Vertex u, Vertex v) {
  return directed || u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

/// Net edits not yet applied to a graph's CSR arrays, keyed by edge_key:
/// whether the edge is present after them. An entry exists only where that
/// differs from the arrays (bcc/mutable_graph.hpp defers its edits so).
using PendingEdits = std::map<std::pair<Vertex, Vertex>, bool>;

/// Reduce `ops` to their net effect against `g` (see file comment). With
/// `pending`, the ops coalesce and validate against `g` with those edits
/// applied, without applying them: an edge's state before the batch is its
/// pending entry when it has one, its arc in `g` otherwise.
CoalesceResult coalesce_batch(const CsrGraph& g, const std::vector<EdgeOp>& ops,
                              const PendingEdits* pending = nullptr);

/// Apply every op to `g` in place, the one CSR edit algorithm: the ops
/// become sorted per-arc edits (both arcs of an undirected edge; the
/// out-arc and its transpose for directed graphs); the arc segments
/// between edit points shift by the running arc delta (one memmove each),
/// the inserted arcs fill the gaps, and the offsets move from the first
/// edited vertex on. O(|E|) bytes moved and O(|V|) offsets fixed at worst,
/// no allocation of a second graph. Every op is checked against `g` before
/// the first write, so a throw leaves `g` equal to its input: it throws
/// apgre::Error with the single-edge mutate helpers' messages ("arc
/// already present", "arc not present", ...), "update endpoint out of
/// range", or "two ops on one arc" — coalesce_batch survivors never trip
/// any of them. Throws on an empty batch.
void apply_edge_ops_in_place(CsrGraph& g, const std::vector<EdgeOp>& ops);

/// Successor graph with every op applied: a copy of `g`, its arc arrays
/// sized for the edited graph before the copy, edited in place. Validates
/// and throws like apply_edge_ops_in_place, before the copy is made.
CsrGraph apply_edge_ops(const CsrGraph& g, const std::vector<EdgeOp>& ops);

/// Serialize one batch as a binary frame (magic "APGB", version, count,
/// fixed-width little-endian ops).
void write_edge_batch(std::ostream& out, const UpdateRequest& batch);

/// Read one frame. Throws apgre::Error on a malformed frame.
UpdateRequest read_edge_batch(std::istream& in);

/// Whole replay file: frames back to back until EOF.
void write_edge_batch_file(const std::string& path,
                           const std::vector<UpdateRequest>& batches);
std::vector<UpdateRequest> read_edge_batch_file(const std::string& path);

}  // namespace apgre
