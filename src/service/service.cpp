#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bcc/mutable_graph.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace apgre {

// Parallel solves need no serialization here: every parallel kernel runs
// on the reentrant work-stealing scheduler (support/sched/scheduler.hpp).
// The service submits every request directly.

struct Service::Impl {
  /// Per-graph registry entry. `mu` serializes this graph's writes: the
  /// ingest, the snapshot swap and the patch of its warm session, which a
  /// write checks out of the LRU and puts back before releasing `mu`.
  /// Readers copy the snapshot under it and solve outside it.
  /// Lock ordering: entry->mu before cache_mu, never the reverse; cache_mu
  /// is only ever held for O(1) LRU operations, so holding entry->mu
  /// through a long patch delays this graph's requests and no other's.
  struct GraphEntry {
    explicit GraphEntry(CsrGraph g) : graph(std::move(g)) {}

    std::mutex mu;
    /// The current snapshot and its block-cut classifier; every update
    /// runs its ingest step (bcc/mutable_graph.hpp).
    MutableGraph graph;
  };

  /// A warm Solver bound to one immutable snapshot. The pin keeps the
  /// snapshot alive (and its address un-reusable), so pointer equality
  /// against the entry's current snapshot is a sound freshness test.
  /// Contribution tracking is on so local updates can re-score one block
  /// in place instead of invalidating the session.
  struct Session {
    std::shared_ptr<const CsrGraph> pin;
    Solver solver;

    explicit Session(std::shared_ptr<const CsrGraph> snap)
        : pin(std::move(snap)), solver(*pin) {
      solver.enable_contribution_tracking();
    }
  };

  /// One of this Service's counters (ServiceStats) beside its process-wide
  /// service.* metric, when it has one. The metric is resolved once: the
  /// registry keeps entries across reset(), so the pointer stays valid and
  /// a tick never takes the registry mutex.
  struct Tally {
    explicit Tally(std::string_view metric = {})
        : global(metric.empty() ? nullptr : &metrics().counter(metric)) {}

    void add(std::uint64_t delta = 1) {
      own.fetch_add(delta, std::memory_order_relaxed);
      if (global != nullptr) global->add(delta);
    }
    std::uint64_t value() const { return own.load(std::memory_order_relaxed); }

    std::atomic<std::uint64_t> own{0};
    Counter* global;
  };

  struct Stats {
    Tally requests{"service.requests"};
    Tally solves;
    Tally top_k;
    Tally updates;
    Tally errors{"service.errors"};
    Tally session_hits{"service.session_hits"};
    Tally session_misses{"service.session_misses"};
    Tally patch_missed{"service.patch_missed"};
    Tally session_evictions{"service.session_evictions"};
    Tally updates_local{"service.updates_local"};
    Tally updates_structural{"service.updates_structural"};
    Tally local_recomputes{"service.local_recomputes"};
    Tally full_invalidations{"service.full_invalidations"};
    Tally batch_updates{"service.batch.requests"};
    Tally batch_edges{"service.batch.edges"};
    Tally coalesced_away{"service.batch.coalesced_away"};
    Tally blocks_resolved{"service.batch.blocks_resolved"};
    Tally batch_downgrades{"service.batch.downgrades"};
  };

  explicit Impl(ServiceOptions opts) : options(opts) {
    options.workers = std::max(options.workers, 1);
    options.session_capacity = std::max<std::size_t>(options.session_capacity, 1);
    workers.reserve(static_cast<std::size_t>(options.workers));
    for (int i = 0; i < options.workers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(queue_mu);
      stopping = true;
    }
    queue_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  // ---- worker pool -------------------------------------------------------

  void worker_loop() {
    for (;;) {
      std::packaged_task<Response()> task;
      {
        std::unique_lock<std::mutex> lk(queue_mu);
        queue_cv.wait(lk, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping, fully drained
        task = std::move(queue.front());
        queue.pop_front();
        queue_depth.set(static_cast<double>(queue.size()));
      }
      task();
    }
  }

  std::future<Response> submit(Request request) {
    const RequestKind kind = request.kind;
    std::packaged_task<Response()> task(
        [this, req = std::move(request)] { return process(req); });
    std::future<Response> future = task.get_future();
    {
      std::lock_guard<std::mutex> lk(queue_mu);
      if (stopping) {
        // Status-based error path: resolve immediately instead of throwing
        // into the caller's enqueue site.
        std::promise<Response> broken;
        Response response;
        response.kind = kind;
        response.status = Status::failed("Service is shutting down");
        broken.set_value(std::move(response));
        return broken.get_future();
      }
      queue.push_back(std::move(task));
      queue_depth.set(static_cast<double>(queue.size()));
    }
    queue_cv.notify_one();
    return future;
  }

  // ---- registry ----------------------------------------------------------

  std::shared_ptr<GraphEntry> find_entry(const std::string& name) const {
    std::lock_guard<std::mutex> lk(registry_mu);
    const auto it = graphs.find(name);
    return it == graphs.end() ? nullptr : it->second;
  }

  // ---- session cache (LRU, MRU at the front) -----------------------------
  //
  // cache_mu guards list and index operations only. Sessions leaving the
  // cache for good are spliced into a local list declared before the lock
  // guard, so their solvers are destroyed after cache_mu is released.

  using Lru = std::list<std::pair<std::string, std::unique_ptr<Session>>>;

  std::unique_ptr<Session> cache_take(const std::string& name) {
    std::lock_guard<std::mutex> lk(cache_mu);
    const auto it = lru_index.find(name);
    if (it == lru_index.end()) return nullptr;
    std::unique_ptr<Session> session = std::move(it->second->second);
    lru.erase(it->second);
    lru_index.erase(it);
    return session;
  }

  void cache_put(const std::string& name, std::unique_ptr<Session> session) {
    Lru evicted;
    std::lock_guard<std::mutex> lk(cache_mu);
    const auto it = lru_index.find(name);
    if (it != lru_index.end()) {
      // A concurrent solve reinserted first; most recent wins.
      evicted.splice(evicted.end(), lru, it->second);
      lru_index.erase(it);
    }
    lru.emplace_front(name, std::move(session));
    lru_index[name] = lru.begin();
    while (lru.size() > options.session_capacity) {
      lru_index.erase(lru.back().first);
      evicted.splice(evicted.end(), lru, std::prev(lru.end()));
      stats.session_evictions.add();
    }
  }

  void cache_drop(const std::string& name) {
    Lru dropped;
    std::lock_guard<std::mutex> lk(cache_mu);
    const auto it = lru_index.find(name);
    if (it == lru_index.end()) return;
    dropped.splice(dropped.end(), lru, it->second);
    lru_index.erase(it);
  }

  // ---- request handling --------------------------------------------------

  Response process(const Request& request) {
    stats.requests.add();
    const bool mutation = request.kind == RequestKind::kUpdate ||
                          request.kind == RequestKind::kUpdateBatch;
    Response response = mutation ? update(request) : solve(request);
    if (!response.status.ok()) stats.errors.add();
    return response;
  }

  static Response fail(Response response, Status status) {
    response.status = std::move(status);
    return response;
  }

  static Response fail(Response response, std::string why) {
    return fail(std::move(response), Status::failed(std::move(why)));
  }

  Response solve(const Request& request) {
    APGRE_TRACE_SPAN("service/solve");
    Response response;
    response.kind = request.kind;
    (request.kind == RequestKind::kTopK ? stats.top_k : stats.solves).add();

    const std::shared_ptr<GraphEntry> entry = find_entry(request.graph);
    if (entry == nullptr) {
      return fail(std::move(response), "unknown graph: " + request.graph);
    }
    if (request.kind == RequestKind::kTopK && request.k == 0) {
      return fail(std::move(response),
                  Status::invalid_option("top_k requires k >= 1"));
    }

    std::shared_ptr<const CsrGraph> snap;
    {
      std::lock_guard<std::mutex> lk(entry->mu);
      snap = entry->graph.snapshot();
    }

    std::unique_ptr<Session> session = cache_take(request.graph);
    const bool hit = session != nullptr && session->pin == snap;
    if (session == nullptr) {
      session = std::make_unique<Session>(snap);
    } else if (!hit) {
      // A missed patch: the session was checked out (by a concurrent
      // solve) while a write or re-register moved the graph to another
      // snapshot, so it came back pinned to a different one. Rebind
      // structurally; the next APGRE solve re-decomposes.
      session->solver.rebind(*snap);
      session->pin = snap;
      stats.patch_missed.add();
    }
    (hit ? stats.session_hits : stats.session_misses).add();

    BcResult result = session->solver.solve(request.options);
    cache_put(request.graph, std::move(session));

    if (!result.status.ok()) {
      return fail(std::move(response), result.status);
    }
    response.status = Status::Ok();
    response.session_hit = hit;
    response.seconds = result.seconds;
    if (request.kind == RequestKind::kSolve) {
      response.scores = std::move(result.scores);
      return response;
    }
    // top_k: partial-sort indices by score descending, vertex ascending on
    // ties, so transcripts are byte-stable.
    const std::vector<double>& scores = result.scores;
    std::vector<Vertex> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<Vertex>(i);
    }
    const std::size_t k =
        std::min<std::size_t>(request.k, order.size());
    const auto better = [&scores](Vertex a, Vertex b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;
    };
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), better);
    response.top.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      response.top.push_back(TopEntry{order[i], scores[order[i]]});
    }
    return response;
  }

  /// The one mutation path: kUpdate (exactly one op) and kUpdateBatch both
  /// run the entry's ingest step (bcc/mutable_graph.hpp), then invalidate
  /// or patch what this service caches on top of the snapshot: the warm
  /// session.
  Response update(const Request& request) {
    APGRE_TRACE_SPAN("service/update");
    const bool batched = request.kind == RequestKind::kUpdateBatch;
    Response response;
    response.kind = request.kind;
    (batched ? stats.batch_updates : stats.updates).add();

    if (!batched && request.update.ops.size() != 1) {
      return fail(std::move(response),
                  Status::invalid_option(
                      "update expects exactly one op (use update_batch)"));
    }
    response.batch.batch_edges = request.update.ops.size();

    const std::shared_ptr<GraphEntry> entry = find_entry(request.graph);
    if (entry == nullptr) {
      return fail(std::move(response), "unknown graph: " + request.graph);
    }

    std::lock_guard<std::mutex> lk(entry->mu);
    // Warm sessions are matched against the snapshot the batch applies to.
    // Holding `prev` also keeps the fold copy-on-write: the snapshot is
    // shared, so the batch lands in a new one (structural batches fold in
    // ingest, local ones in the snapshot() read below) and a session
    // pinned to `prev` (or a reader still solving on it) never sees its
    // graph change under it, and `pin == snapshot` stays a sound freshness
    // test.
    const std::shared_ptr<const CsrGraph> prev = entry->graph.snapshot();
    const IngestResult ingested = entry->graph.ingest(request.update);
    response.batch = ingested.stats;
    if (!ingested.ok()) {
      // Coalescing rejected the batch (out-of-range endpoint, self-loop,
      // op redundant against the snapshot, ...) — nothing changed.
      return fail(std::move(response), ingested.status);
    }
    if (!ingested.applied()) {
      // The batch cancelled itself out: a legal no-op, no snapshot swap.
      finalize_batch(response, batched);
      return response;
    }
    const std::vector<EdgeOp>& survivors = ingested.survivors;
    const bool local = !ingested.structural();
    const std::shared_ptr<const CsrGraph> snap = entry->graph.snapshot();

    if (local) {
      // Blast radius: the biconnected components the batch is confined to.
      // Deterministic from graph state (unlike any recompute count, which
      // would depend on what happened to be cached).
      response.affected_sources = ingested.affected_sources;
      bool any_delete = false;
      for (const EdgeOp& op : survivors) any_delete |= !op.insert;
      response.locality = any_delete ? UpdateLocality::kLocalDelete
                                     : UpdateLocality::kLocalInsert;
    } else {
      response.locality = UpdateLocality::kStructural;
    }
    (local ? stats.updates_local : stats.updates_structural)
        .add(survivors.size());

    // Check the warm session out of the LRU, patch it holding only
    // entry->mu, and put it back before entry->mu is released. cache_mu
    // guards the LRU operations alone, so other graphs' requests never
    // wait on the patch; a same-graph solve takes entry->mu first and so
    // finds the session back in the cache, fresh. The put makes the write
    // a use of its graph (most recent in the LRU). A session a concurrent
    // solve has checked out misses the patch and is rebound on its next
    // solve (stats.patch_missed). One contribution-store re-solve per
    // affected block for the whole batch.
    if (std::unique_ptr<Session> session = cache_take(request.graph)) {
      const bool fresh = session->pin == prev;
      const bool patched =
          local && fresh &&
          session->solver.apply_local_batch(*snap, survivors) > 0;
      if (!patched && !(local && fresh)) {
        // apply_local_batch already rebound on its zero path; only the
        // cases that never entered it still need the explicit rebind.
        session->solver.rebind(*snap);
      }
      session->pin = snap;
      (patched ? stats.local_recomputes : stats.full_invalidations).add();
      cache_put(request.graph, std::move(session));
    }

    finalize_batch(response, batched);
    return response;
  }

  /// Success bookkeeping shared by the no-op and executed batch paths:
  /// ServiceStats plus the service.batch.* metrics (docs/OBSERVABILITY.md).
  void finalize_batch(Response& response, bool batched) {
    response.status = Status::Ok();
    if (!batched) return;
    const BatchStats& batch = response.batch;
    stats.batch_edges.add(batch.batch_edges);
    stats.coalesced_away.add(batch.coalesced_away);
    stats.blocks_resolved.add(batch.blocks_resolved);
    stats.batch_downgrades.add(batch.batch_downgrades);
  }

  ServiceOptions options;

  mutable std::mutex registry_mu;
  std::map<std::string, std::shared_ptr<GraphEntry>> graphs;

  /// Guards only `lru` and `lru_index` (O(1) list and index operations);
  /// no session is patched, rebound or solved while it is held.
  mutable std::mutex cache_mu;
  Lru lru;
  std::unordered_map<std::string, Lru::iterator> lru_index;

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<std::packaged_task<Response()>> queue;
  bool stopping = false;
  std::vector<std::thread> workers;

  Stats stats;
  Gauge& queue_depth = metrics().gauge("service.queue_depth");
  Gauge& graph_count = metrics().gauge("service.graphs");
};

Service::Service(ServiceOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

Service::~Service() = default;

Status Service::register_graph(const std::string& name, CsrGraph graph) {
  if (name.empty()) {
    return Status::invalid_option("graph name must be non-empty");
  }
  auto entry = std::make_shared<Impl::GraphEntry>(std::move(graph));
  {
    std::lock_guard<std::mutex> lk(impl_->registry_mu);
    impl_->graphs[name] = std::move(entry);
  }
  // Any warm session belongs to the replaced graph; drop it.
  impl_->cache_drop(name);
  impl_->graph_count.set(static_cast<double>(graph_names().size()));
  return Status::Ok();
}

bool Service::unregister_graph(const std::string& name) {
  bool existed = false;
  {
    std::lock_guard<std::mutex> lk(impl_->registry_mu);
    existed = impl_->graphs.erase(name) > 0;
  }
  impl_->cache_drop(name);
  return existed;
}

std::vector<std::string> Service::graph_names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lk(impl_->registry_mu);
  names.reserve(impl_->graphs.size());
  for (const auto& [name, entry] : impl_->graphs) names.push_back(name);
  return names;
}

std::shared_ptr<const CsrGraph> Service::snapshot(
    const std::string& name) const {
  const auto entry = impl_->find_entry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(entry->mu);
  return entry->graph.snapshot();
}

std::future<Response> Service::submit(Request request) {
  return impl_->submit(std::move(request));
}

std::vector<Response> Service::run_batch(std::vector<Request> requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(impl_->submit(std::move(request)));
  }
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

Response Service::handle(const Request& request) {
  return impl_->process(request);
}

std::size_t Service::evict_sessions() {
  Impl::Lru dropped;
  std::lock_guard<std::mutex> lk(impl_->cache_mu);
  dropped.swap(impl_->lru);
  impl_->lru_index.clear();
  impl_->stats.session_evictions.add(dropped.size());
  return dropped.size();
}

std::size_t Service::session_count() const {
  std::lock_guard<std::mutex> lk(impl_->cache_mu);
  return impl_->lru.size();
}

ServiceStats Service::stats() const {
  const Impl::Stats& s = impl_->stats;
  ServiceStats out;
  out.requests = s.requests.value();
  out.solves = s.solves.value();
  out.top_k = s.top_k.value();
  out.updates = s.updates.value();
  out.errors = s.errors.value();
  out.session_hits = s.session_hits.value();
  out.session_misses = s.session_misses.value();
  out.patch_missed = s.patch_missed.value();
  out.session_evictions = s.session_evictions.value();
  out.updates_local = s.updates_local.value();
  out.updates_structural = s.updates_structural.value();
  out.local_recomputes = s.local_recomputes.value();
  out.full_invalidations = s.full_invalidations.value();
  out.batch_updates = s.batch_updates.value();
  out.batch_edges = s.batch_edges.value();
  out.coalesced_away = s.coalesced_away.value();
  out.blocks_resolved = s.blocks_resolved.value();
  out.batch_downgrades = s.batch_downgrades.value();
  return out;
}

}  // namespace apgre
