#include "bcc/mutable_graph.hpp"

#include <atomic>
#include <utility>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace apgre {

MutableGraph::MutableGraph(CsrGraph graph)
    : snapshot_(std::make_shared<CsrGraph>(std::move(graph))) {}

std::shared_ptr<const CsrGraph> MutableGraph::snapshot() const {
  fold();
  return snapshot_;
}

const CsrGraph& MutableGraph::graph() const {
  fold();
  return *snapshot_;
}

bool MutableGraph::unshared() const {
  if (snapshot_.use_count() != 1) return false;
  // A former holder may have dropped its handle on another thread just
  // now; the acquire pairs with that release of the count, so its reads of
  // the graph happen before the edits that follow.
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
}

void MutableGraph::fold() const {
  if (pending_.empty()) return;
  std::vector<EdgeOp> ops;
  ops.reserve(pending_.size());
  for (const auto& [edge, present] : pending_) {
    ops.push_back(EdgeOp{edge.first, edge.second, present});
  }
  // Pending edits are legal against the arrays by construction, so neither
  // call throws on them.
  if (unshared()) {
    apply_edge_ops_in_place(*snapshot_, ops);
  } else {
    snapshot_ = std::make_shared<CsrGraph>(apply_edge_ops(*snapshot_, ops));
  }
  pending_.clear();
  metrics().counter("graph.folds").add();
}

IngestResult MutableGraph::ingest(const UpdateRequest& request) {
  APGRE_TRACE_SPAN("bcc/ingest");
  IngestResult out;
  out.stats.batch_edges = request.ops.size();
  CoalesceResult coalesced =
      coalesce_batch(*snapshot_, request.ops, &pending_);
  out.stats.coalesced_away = coalesced.coalesced_away;
  out.status = std::move(coalesced.status);
  if (!out.ok() || coalesced.survivors.empty()) return out;
  out.survivors = std::move(coalesced.survivors);

  const bool directed = snapshot_->directed();
  BatchClassification verdict;
  if (directed) {
    // Conservative: directed reachability can change while the undirected
    // projection's block structure survives.
    verdict.structural = true;
  } else {
    if (queries_ == nullptr) {
      // Only a local batch leaves edits pending, and it needs a classifier,
      // so the arrays are current whenever none is cached.
      APGRE_ASSERT(pending_.empty());
      queries_ = std::make_unique<BlockCutQueries>(*snapshot_);
    }
    verdict = queries_->classify_batch(out.survivors);
  }

  for (const EdgeOp& op : out.survivors) {
    const auto [edit, fresh] =
        pending_.try_emplace(edge_key(directed, op.u, op.v), op.insert);
    // The survivor is legal against the pending state, so it reverses the
    // pending edit: the edge is back to what the arrays hold.
    if (!fresh) pending_.erase(edit);
  }

  if (verdict.structural) {
    fold();
    out.stats.batch_downgrades = 1;
    queries_.reset();
    return out;
  }
  // The tree survives the whole batch; only the affected blocks' edge
  // multisets moved.
  out.stats.blocks_resolved = verdict.groups.size();
  for (const BatchGroup& group : verdict.groups) {
    out.affected_sources += static_cast<Vertex>(
        queries_->bcc().component_vertices[group.block].size());
  }
  for (const EdgeOp& op : out.survivors) {
    queries_->apply_local_update(op.u, op.v, op.insert);
  }
  return out;
}

void MutableGraph::replace(CsrGraph next) {
  pending_.clear();
  snapshot_ = std::make_shared<CsrGraph>(std::move(next));
  queries_.reset();
}

}  // namespace apgre
