// Single-update graph rebuilds shared by every dynamic path (DynamicBc,
// IncrementalBc, the service): validate an edge/vertex mutation against the
// current graph and produce the successor CsrGraph. Validation throws
// apgre::Error *before* constructing anything, so callers can use the
// returned graph as a commit point — if a helper returns, the update was
// legal and nothing else needs to be rolled back.
#pragma once

#include "graph/csr.hpp"

namespace apgre {

/// True iff the arc u -> v is stored.
bool has_arc(const CsrGraph& g, Vertex u, Vertex v);

/// Graph with the edge (u, v) added — both arcs for undirected graphs.
/// A batch of one through apply_edge_ops (graph/update.hpp): a copy edited
/// in place, no EdgeList round-trip or re-sort.
/// Throws: "update endpoint out of range", "self-loops do not affect
/// betweenness" (u == v), "arc already present".
CsrGraph with_edge_inserted(const CsrGraph& g, Vertex u, Vertex v);

/// Graph with the edge (u, v) removed — both arcs for undirected graphs.
/// The same one-op apply_edge_ops edit as with_edge_inserted.
/// Throws: "update endpoint out of range", "self-loops do not affect
/// betweenness" (u == v), "arc not present", "symmetric arc missing".
CsrGraph with_edge_removed(const CsrGraph& g, Vertex u, Vertex v);

/// Graph with one fresh vertex (id = old num_vertices()) attached to
/// `host` by a single edge — the arc pendant -> host for directed graphs
/// (the static pendant metamorphic rule's convention), both arcs otherwise.
CsrGraph with_pendant_attached(const CsrGraph& g, Vertex host);

}  // namespace apgre
