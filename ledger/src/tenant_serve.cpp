// tenant_serve: apgre::Service at default options (4 workers, 8 sessions)
// serving four tenant graphs. The load is closed-loop with one client
// thread per tenant; the clients stand for apgre_serve callers, who wait
// for each reply. Four requests in five are top_k (k = 10); the fifth is an
// update_batch toggling the client's own 8 vertex-disjoint non-AP chords,
// two in each of four blocks, and every 8th write toggles an edge between
// two pendants of the largest block, which is structural. Three clients
// write into their smallest blocks; the dblp client writes into its largest
// block too, whose re-solve the service runs while holding the session
// cache lock, so every tenant's reads wait behind it. Reads run beside
// writes, so the mix exercises session reuse, local block re-solves, cold
// re-solves after structural writes and cross-tenant lock waits.
#include <memory>
#include <thread>

#include "graphs.hpp"
#include "service/service.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace apgre;

constexpr std::size_t kChordsPerBlock = 2;
constexpr std::size_t kBlocksPerBatch = 4;
/// The tenant whose writes also re-solve its largest block (its
/// Barabasi-Albert core, about 30 ms on four threads).
constexpr const char* kCoreWriter = "dblp";

/// One tenant's client: its graph name, the edges it toggles, and what it
/// knows about their presence (only successful writes flip it).
struct Client {
  std::string graph;
  std::vector<Edge> chords;
  Edge cross{};
  bool chords_present = true;
  bool cross_present = false;
  std::uint64_t requests = 0;
  std::uint64_t writes = 0;
  /// Which request of every five is the write; seeded, so the clients'
  /// writes are staggered.
  std::uint64_t write_slot = 0;
};

struct Sample {
  bool read = true;
  double latency = 0.0;  ///< submit to reply, seconds
  double solve = 0.0;    ///< Response::seconds (reads)
};

Request next_request(Client& c) {
  Request r;
  r.graph = c.graph;
  if (c.requests++ % 5 != c.write_slot) {
    r.kind = RequestKind::kTopK;
    r.k = 10;
    return r;
  }
  r.kind = RequestKind::kUpdateBatch;
  if (++c.writes % 8 == 0) {
    r.update = toggle_batch({c.cross}, !c.cross_present);
  } else {
    r.update = toggle_batch(c.chords, !c.chords_present);
  }
  return r;
}

void record_write(Client& c, bool ok) {
  if (!ok) return;
  if (c.writes % 8 == 0) {
    c.cross_present = !c.cross_present;
  } else {
    c.chords_present = !c.chords_present;
  }
}

/// Runs every client in its own thread for `seconds`; per-client samples
/// and (when `logs` is given) spans. Returns the wall seconds.
double closed_loop(Service& service, std::vector<Client>& clients, double seconds,
                   std::vector<std::vector<Sample>>& samples,
                   std::vector<SpanLog>* logs) {
  samples.assign(clients.size(), {});
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      run_for(seconds - seconds_since(start), kMinOps, [&](std::size_t i) {
        Request request = next_request(clients[c]);
        const bool read = request.kind == RequestKind::kTopK;
        const Clock::time_point sent = Clock::now();
        const Response reply = service.submit(std::move(request)).get();
        const Clock::time_point received = Clock::now();
        if (!read) record_write(clients[c], reply.status.ok());
        samples[c].push_back(Sample{read, seconds_between(sent, received),
                                    reply.status.ok() ? reply.seconds : -1.0});
        if (logs != nullptr) {
          SpanLog& log = (*logs)[c];
          const std::uint64_t op = (std::uint64_t{c} << 32) | i;
          const double s = seconds_between(start, sent);
          const double e = seconds_between(start, received);
          log.add(Span{read ? "read" : "write", "", op, static_cast<int>(c), s, e});
          if (read) {
            log.add(Span{"bc.read_solve", "read", op, static_cast<int>(c),
                         e - reply.seconds, e});
          }
        }
        clear_spans();
      });
    });
  }
  for (std::thread& t : threads) t.join();
  return seconds_since(start);
}

/// Request latencies of one closed loop, by kind.
struct Latencies {
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<double> all;
};

/// Every request's latency; counts attempts and failures into `report`.
Latencies tally(const std::vector<std::vector<Sample>>& samples, Report& report) {
  Latencies out;
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      (s.read ? out.reads : out.writes).push_back(s.latency);
      out.all.push_back(s.latency);
      ++report.attempted;
      if (s.solve < 0.0) ++report.failed;
    }
  }
  return out;
}

}  // namespace

void tenant_serve(const RunOptions& opt, Report& report, std::vector<Span>& spans) {
  std::unique_ptr<Service> service;
  std::vector<Client> clients;
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    clients.clear();
    const Clock::time_point start = Clock::now();
    service = std::make_unique<Service>();
    std::vector<Request> first_reads;
    std::uint64_t tag = 100;
    for (Tenant& t : tenant_graphs(opt.seed, opt.scale)) {
      Client c;
      c.graph = t.name;
      const auto pools = local_chords(t.graph, kChordsPerBlock);
      c.cross = core_cross_edge(t.graph);
      c.write_slot = derive_seed(opt.seed, tag++) % 5;
      if (pools.size() < kBlocksPerBatch || c.cross.src == kInvalidVertex) {
        report.fail("tenant " + t.name + " lacks blocks with chords or core pendants");
        return;
      }
      // Pools come smallest block first; the core writer swaps its last
      // small block for the largest.
      for (std::size_t b = 0; b < kBlocksPerBatch; ++b) {
        const bool core = b + 1 == kBlocksPerBatch && t.name == kCoreWriter;
        const auto& pool = core ? pools.back() : pools[b];
        c.chords.insert(c.chords.end(), pool.begin(), pool.end());
      }
      service->register_graph(t.name, std::move(t.graph));
      Request r;
      r.kind = RequestKind::kTopK;
      r.graph = c.graph;
      first_reads.push_back(std::move(r));
      clients.push_back(std::move(c));
    }
    for (const Response& r : service->run_batch(std::move(first_reads))) {
      if (!r.status.ok()) report.fail("first top_k: " + r.status.message);
    }
    setup.push_back(seconds_since(start));
    clear_spans();
  }
  report.set_samples("setup_s", setup);

  std::vector<std::vector<Sample>> untraced;
  const double faults_before = minor_faults();
  const double wall = closed_loop(*service, clients,
                                  opt.traced ? 0.5 * opt.seconds : opt.seconds,
                                  untraced, nullptr);
  // op_ms is the mean read: cache hits, lock waits and cold re-solves
  // after structural writes; ops_per_s counts every request.
  const Latencies untraced_latency = tally(untraced, report);
  report.set_latency(untraced_latency.reads, untraced_latency.all.size(), wall);
  report.set("process.minor_faults_per_op",
             (minor_faults() - faults_before) /
                 static_cast<double>(untraced_latency.all.size()));
  report.set("process.peak_rss_mb", peak_rss_mb());

  if (opt.traced) {
    const ServiceStats before = service->stats();
    Counter& decompositions = metrics().counter("bcc.decompositions");
    const std::uint64_t decompositions_before = decompositions.value();
    const Clock::time_point epoch = Clock::now();
    std::vector<SpanLog> logs;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      logs.emplace_back(epoch, static_cast<int>(c));
    }
    std::vector<std::vector<Sample>> traced;
    closed_loop(*service, clients, 0.5 * opt.seconds, traced, &logs);
    const ServiceStats after = service->stats();

    const Latencies traced_latency = tally(traced, report);
    std::vector<double> read_solve, read_wait;
    for (const auto& client : traced) {
      for (const Sample& s : client) {
        if (s.read && s.solve >= 0.0) {
          read_solve.push_back(s.solve);
          read_wait.push_back(s.latency - s.solve);
        }
      }
    }
    report.set_quantile("service.read_ms.p50", traced_latency.reads, 0.5, 1e3);
    report.set_quantile("service.read_ms.p99", traced_latency.reads, 0.99, 1e3);
    report.set_quantile("service.write_ms.p50", traced_latency.writes, 0.5, 1e3);
    report.set_quantile("service.write_ms.p90", traced_latency.writes, 0.9, 1e3);
    report.set_quantile("bc.read_solve_ms.p50", read_solve, 0.5, 1e3);
    report.set_quantile("bc.read_solve_ms.p99", read_solve, 0.99, 1e3);
    report.set_quantile("service.read_wait_ms.p50", read_wait, 0.5, 1e3);
    report.set_quantile("service.read_wait_ms.p99", read_wait, 0.99, 1e3);

    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    const double lookups = delta(before.session_hits + before.session_misses,
                                 after.session_hits + after.session_misses);
    const double write_count = delta(before.batch_updates, after.batch_updates);
    report.set("service.hit_rate",
               lookups > 0 ? delta(before.session_hits, after.session_hits) / lookups : 0.0);
    if (write_count > 0) {
      report.set("service.local_recomputes_per_write",
                 delta(before.local_recomputes, after.local_recomputes) / write_count);
      report.set("service.full_invalidations_per_write",
                 delta(before.full_invalidations, after.full_invalidations) / write_count);
      report.set("service.batch_downgrades_per_write",
                 delta(before.batch_downgrades, after.batch_downgrades) / write_count);
      report.set("bc.blocks_resolved_per_write",
                 delta(before.blocks_resolved, after.blocks_resolved) / write_count);
    }
    report.set("bcc.decompositions_per_op",
               delta(decompositions_before, decompositions.value()) /
                   static_cast<double>(traced_latency.all.size()));
    // The service's layers run inside the library, so the trace splits each
    // request into its solve and the rest; coverage compares the traced
    // loop with the untraced one.
    report.set("trace.coverage",
               interquartile_mean(traced_latency.all) /
                   interquartile_mean(untraced_latency.all));
    for (const SpanLog& log : logs) {
      spans.insert(spans.end(), log.spans().begin(), log.spans().end());
    }
  }

  // Exactness gate, outside every timed region: each tenant's scores from
  // the service must equal serial Brandes on its final snapshot.
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  for (const Client& c : clients) {
    Request r;
    r.kind = RequestKind::kSolve;
    r.graph = c.graph;
    const Response reply = service->handle(r);
    if (!reply.status.ok()) {
      report.fail(c.graph + " final solve: " + reply.status.message);
      continue;
    }
    check_scores(report, c.graph + " service scores vs serial Brandes",
                 betweenness(*service->snapshot(c.graph), serial).scores,
                 reply.scores);
  }
}

}  // namespace ledger
