// Concurrent betweenness-centrality query service.
//
// One apgre::Service owns
//   * a named-graph registry (register_graph / unregister_graph),
//   * an LRU cache of warm Solver sessions, capacity-bounded, so repeated
//     queries against the same graph reuse the APGRE decomposition and
//     reach counts instead of recomputing them per request,
//   * a worker thread pool draining a request queue (submit / run_batch).
//
// Four request kinds: `solve` (full score vector, any registered
// algorithm), `top_k` (partial-sort over the scores), `update` (one edge
// insert/remove), and `update_batch` (a timestamped batch of edge ops).
// Every mutation is one UpdateRequest — a single `update` is a batch of
// size 1 — and runs the per-graph MutableGraph's ingest step
// (bcc/mutable_graph.hpp), the same one IncrementalBc runs: coalesce,
// classify the batch against the block-cut tree as a whole, record the
// edits, patch the classifier or fold and drop it (the write then reads the
// new snapshot, which folds a local batch's edits too). The service then either patches the warm
// session's contribution store with ONE block re-solve per affected block
// (Solver::apply_local_batch) or — when the batch is structural — drops
// the session's cached decomposition and peel ONCE for the whole batch so
// the next solve re-peels and re-decomposes with that request's options. The split is
// observable as local_recomputes vs full_invalidations plus the batch_*
// counters.
//
// Error channel: every Response carries a Status (Response::status). The
// public API itself is Status-based — register_graph reports an invalid
// name instead of throwing, submit resolves the future with a failed
// Response when the service is shutting down — so no service entry point
// throws on bad requests (docs/API.md "Error handling").
//
// Thread-safety: every public member is safe to call from any thread, and
// the service imposes no cross-graph serialization. Writes to one graph
// run one at a time under that graph's lock, which also covers the patch
// of its warm session; the session cache's own lock is held only for O(1)
// LRU operations, so one tenant's block re-solve never delays another
// tenant's requests. Every parallel kernel runs on the reentrant scheduler
// (support/sched/scheduler.hpp) — N workers can drive N parallel solves
// concurrently, sharing the process-wide work-stealing pool.
//
// Observability: service.* metrics (requests, session_hits/misses/
// evictions, patch_missed, updates_local/structural, queue_depth gauge)
// plus per-Service ServiceStats snapshots; request handling is wrapped in
// service/* trace spans.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "bcc/queries.hpp"
#include "graph/csr.hpp"
#include "graph/update.hpp"

namespace apgre {

struct ServiceOptions {
  /// Worker threads draining the request queue; clamped to >= 1.
  int workers = 4;
  /// Maximum number of warm Solver sessions kept in the LRU cache.
  std::size_t session_capacity = 8;
};

enum class RequestKind { kSolve, kTopK, kUpdate, kUpdateBatch };

struct Request {
  RequestKind kind = RequestKind::kSolve;
  /// Registered graph name.
  std::string graph;
  /// Solve / top_k options (algorithm, threads, halving, tuning).
  BcOptions options;
  /// top_k: ranking size (clamped to |V|; must be >= 1).
  Vertex k = 10;
  /// kUpdate / kUpdateBatch: the mutation payload. kUpdateBatch applies
  /// all ops as one coalesced batch; kUpdate expects exactly one op.
  UpdateRequest update;
};

struct TopEntry {
  Vertex vertex = kInvalidVertex;
  double score = 0.0;
};

struct Response {
  RequestKind kind = RequestKind::kSolve;
  /// The consistent error channel: Ok() on success, the failure reason
  /// otherwise (unknown graph, invalid options, duplicate insert, ...).
  /// Failed requests never mutate service state.
  Status status = Status::failed("request not processed");
  /// kSolve: full score vector.
  std::vector<double> scores;
  /// kTopK: the k highest-scoring vertices, score descending, vertex id
  /// ascending on ties (deterministic for golden tests).
  std::vector<TopEntry> top;
  /// kSolve / kTopK: whether a warm session (graph snapshot still current)
  /// was reused.
  bool session_hit = false;
  /// kUpdate / kUpdateBatch: blast radius of the mutation — the summed
  /// vertex count of the affected biconnected components for local
  /// updates/batches, 0 for structural ones (the whole graph re-solves
  /// lazily). A function of graph state alone, deterministic regardless of
  /// session-cache state.
  Vertex affected_sources = 0;
  /// kUpdate: the op's exact grade. For kUpdateBatch: kStructural when the
  /// batch downgraded, else kLocalInsert for an all-insert batch and
  /// kLocalDelete when any delete survived (per-op grades don't exist at
  /// batch granularity — read `batch` for the real outcome).
  UpdateLocality locality = UpdateLocality::kStructural;
  /// kUpdate / kUpdateBatch: per-batch outcome counters (a single update
  /// reports as a batch of one).
  BatchStats batch;
  /// kSolve / kTopK: scoring wall time (BcResult::seconds).
  double seconds = 0.0;
};

/// Point-in-time copy of one Service's own counters (the service.* metrics
/// aggregate across all Service instances in the process; these don't).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t solves = 0;
  std::uint64_t top_k = 0;
  std::uint64_t updates = 0;
  std::uint64_t errors = 0;
  std::uint64_t session_hits = 0;
  std::uint64_t session_misses = 0;
  /// Session misses whose cached session was bound to another snapshot: a
  /// concurrent solve had it checked out while a write (or re-register)
  /// landed, so it missed the write's patch and was rebound structurally.
  /// A subset of session_misses.
  std::uint64_t patch_missed = 0;
  /// Sessions pushed out of the LRU (over capacity, or evict_sessions).
  /// Solves and writes both count as uses of their graph: a write that
  /// finds a warm session puts it back at the most-recent end.
  std::uint64_t session_evictions = 0;
  std::uint64_t updates_local = 0;
  std::uint64_t updates_structural = 0;
  /// Warm sessions patched in place by the localized path (one per update
  /// whose contribution store re-scored a single block)...
  std::uint64_t local_recomputes = 0;
  /// ...vs warm sessions that had to drop their decomposition (structural
  /// update, stale pin, or no contribution store yet). Updates with no
  /// cached session increment neither; a batch counts once either way.
  std::uint64_t full_invalidations = 0;
  /// kUpdateBatch requests (kUpdate counts under `updates` as before).
  std::uint64_t batch_updates = 0;
  /// Raw ops received across all batch requests, before coalescing.
  std::uint64_t batch_edges = 0;
  /// Ops folded away by coalescing (cancelled pairs, deduped repeats).
  std::uint64_t coalesced_away = 0;
  /// Blocks re-solved by local batch plans — one per affected block per
  /// batch (the classification group count; deterministic from graph state,
  /// unlike the warm-session recompute count, which depends on cache luck).
  std::uint64_t blocks_resolved = 0;
  /// Batches downgraded to a single structural re-decomposition.
  std::uint64_t batch_downgrades = 0;

  /// Warm-session fraction of solve/top_k requests; 0 when none ran.
  double hit_rate() const {
    const std::uint64_t lookups = session_hits + session_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(session_hits) /
                              static_cast<double>(lookups);
  }
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  /// Drains every queued request (futures are never broken), then joins.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register `graph` under `name`, replacing any previous graph of that
  /// name (its warm session is dropped). Reports an empty name through the
  /// returned Status (kInvalidOption) instead of throwing.
  Status register_graph(const std::string& name, CsrGraph graph);

  /// Remove a graph and its warm session. False when the name is unknown.
  bool unregister_graph(const std::string& name);

  /// Registered names, sorted.
  std::vector<std::string> graph_names() const;

  /// Current snapshot of a registered graph (reflects applied updates), or
  /// nullptr for unknown names. The snapshot is immutable; later updates
  /// swap in a new one.
  std::shared_ptr<const CsrGraph> snapshot(const std::string& name) const;

  /// Enqueue one request for the worker pool. Never throws: submitting to
  /// a stopping service resolves the future immediately with a failed
  /// Response ("Service is shutting down").
  std::future<Response> submit(Request request);

  /// Enqueue all requests and wait; responses are in request order even
  /// though execution interleaves across workers.
  std::vector<Response> run_batch(std::vector<Request> requests);

  /// Process one request on the calling thread (the workers call this; it
  /// is also the single-threaded replay path the tests compare against).
  Response handle(const Request& request);

  /// Drop every warm session (forces the next solves cold); returns how
  /// many were dropped. Counted as evictions.
  std::size_t evict_sessions();

  /// Warm sessions currently cached. A session a running request has
  /// checked out (a solve, or a write patching it) is not counted.
  std::size_t session_count() const;

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace apgre
