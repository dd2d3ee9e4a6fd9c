// Concurrency stress tier for apgre::Service (runs under TSan in CI
// alongside parallel_stress_test): 8 client threads × 100 mixed
// solve/top_k/update requests against one Service. Each client owns a
// private graph — nobody else mutates it, so the client's request stream
// has deterministic results regardless of thread interleaving — and also
// hammers a shared read-only graph to contend on the LRU cache and the
// worker pool. After the concurrent run, every client's recorded stream is
// replayed on a fresh single-threaded Service and each response must match
// the replay within the harness tolerance. A cross-tenant test then pins
// that one graph's slow write never holds up another graph's reads, and a
// pinned-reader test that a write never edits a snapshot a reader or a
// checked-out session still holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using testing::expect_scores_near;

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 100;

CsrGraph private_graph(int client) {
  // Small but non-trivial: cliques + pendants give APGRE real blocks and
  // pendants to patch, and keep 800 requests fast enough for TSan.
  return attach_pendants(caveman(3, 4, 100 + static_cast<unsigned>(client)),
                         4, 200 + static_cast<unsigned>(client));
}

CsrGraph shared_graph() { return attach_pendants(caveman(4, 5, 55), 8, 56); }

std::string private_name(int client) {
  return "private_" + std::to_string(client);
}

/// One client's deterministic request stream. Updates draw a valid random
/// mutation from the graph's current state, which only this client
/// mutates, so the stream is reproducible in the replay. The solve mix
/// deliberately includes the parallel kernels (hybrid, lock-free, APGRE's
/// scoring tasks), all on the shared reentrant scheduler: this sweep
/// is what demonstrates they need no cross-request serialization.
Request next_request(Service& service, std::mt19937_64& rng, int client) {
  Request request;
  const std::uint64_t roll = rng() % 10;
  if (roll < 3) {
    request.kind = RequestKind::kSolve;
    request.graph = private_name(client);
    request.options.algorithm =
        (roll == 0) ? Algorithm::kBrandesSerial : Algorithm::kApgre;
  } else if (roll < 5) {
    request.kind = RequestKind::kTopK;
    request.graph = private_name(client);
    request.k = 4;
    request.options.algorithm = Algorithm::kApgre;
  } else if (roll < 7) {
    request.kind = RequestKind::kUpdate;
    request.graph = private_name(client);
    const auto snap = service.snapshot(request.graph);
    const std::vector<DynamicStep> steps =
        snap == nullptr ? std::vector<DynamicStep>{}
                        : random_dynamic_steps(*snap, 1, rng());
    if (steps.empty()) {
      request.kind = RequestKind::kSolve;  // degenerate graph: just solve
      request.options.algorithm = Algorithm::kBrandesSerial;
    } else {
      request.update.ops.push_back(
          EdgeOp{steps[0].u, steps[0].v, steps[0].inserting});
    }
  } else {
    // Shared read-only graph: contends on the session LRU across clients,
    // rotating through the parallel kernels so concurrent parallel solves
    // genuinely overlap.
    request.kind = roll < 9 ? RequestKind::kSolve : RequestKind::kTopK;
    request.graph = "shared";
    request.k = 6;
    switch (rng() % 4) {
      case 0: request.options.algorithm = Algorithm::kBrandesSerial; break;
      case 1: request.options.algorithm = Algorithm::kHybrid; break;
      case 2: request.options.algorithm = Algorithm::kLockFree; break;
      default:
        request.options.algorithm = Algorithm::kApgre;
        break;
    }
  }
  return request;
}

void expect_responses_match(const Response& live, const Response& replayed,
                            int client, int step) {
  ASSERT_EQ(live.status.ok(), replayed.status.ok())
      << "client " << client << " step " << step << ": " << live.status.message
      << " vs " << replayed.status.message;
  if (!live.status.ok()) return;
  ASSERT_EQ(live.kind, replayed.kind);
  switch (live.kind) {
    case RequestKind::kSolve:
      expect_scores_near(replayed.scores, live.scores);
      break;
    case RequestKind::kTopK: {
      ASSERT_EQ(live.top.size(), replayed.top.size());
      for (std::size_t i = 0; i < live.top.size(); ++i) {
        EXPECT_EQ(live.top[i].vertex, replayed.top[i].vertex)
            << "client " << client << " step " << step << " rank " << i;
        EXPECT_NEAR(live.top[i].score, replayed.top[i].score, 1e-6);
      }
      break;
    }
    case RequestKind::kUpdate:
    case RequestKind::kUpdateBatch:
      EXPECT_EQ(live.affected_sources, replayed.affected_sources)
          << "client " << client << " step " << step;
      EXPECT_EQ(live.locality, replayed.locality)
          << "client " << client << " step " << step;
      break;
  }
}

TEST(ServiceStress, ConcurrentClientsMatchSingleThreadedReplay) {
  ServiceOptions options;
  options.workers = 4;
  // Capacity below clients + shared: evictions and cold rebuilds happen
  // constantly under contention, which is the point.
  options.session_capacity = 4;
  Service service(options);

  service.register_graph("shared", shared_graph());
  for (int c = 0; c < kClients; ++c) {
    service.register_graph(private_name(c), private_graph(c));
  }

  std::vector<std::vector<Request>> requests(kClients);
  std::vector<std::vector<Response>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &requests, &responses, c] {
      std::mt19937_64 rng(0x5eedULL + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Request request = next_request(service, rng, c);
        requests[static_cast<std::size_t>(c)].push_back(request);
        responses[static_cast<std::size_t>(c)].push_back(
            service.submit(std::move(request)).get());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.session_hits, 0u) << "warm sessions never reused";

  // Single-threaded replay of each client's recorded stream on a fresh
  // service: private-graph responses must match exactly (nobody else
  // touched those graphs), shared-graph responses are read-only and match
  // too.
  for (int c = 0; c < kClients; ++c) {
    ServiceOptions replay_options;
    replay_options.workers = 1;
    replay_options.session_capacity = 2;
    Service replay(replay_options);
    replay.register_graph("shared", shared_graph());
    replay.register_graph(private_name(c), private_graph(c));
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const Response replayed =
          replay.handle(requests[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(i)]);
      expect_responses_match(
          responses[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
          replayed, c, i);
    }
  }
}

// Adversarial update contention: every client hammers ONE shared mutable
// graph with interleaved updates and solves. Unlike the private-graph
// sweep above there is no per-client determinism — concurrent updates
// race, so some fail validation ("arc already present" / "arc not
// present"); those error responses are expected and tolerated. What must
// hold under TSan and after the dust settles:
//   * no data race, crash, or deadlock while sessions are patched
//     (Solver::apply_local_batch) and invalidated concurrently,
//   * every response is either ok or a clean validation error,
//   * the service's final served scores match a fresh static solve of the
//     final snapshot — whatever interleaving of local patches and full
//     invalidations happened, the cache may never serve stale scores.
TEST(ServiceStress, AdversarialUpdatesOnSharedGraphStayConsistent) {
  constexpr int kUpdateClients = 6;
  constexpr int kStepsPerClient = 60;

  ServiceOptions options;
  options.workers = 4;
  options.session_capacity = 2;
  Service service(options);
  // Dense blocks chained by articulation points: chord inserts and
  // biconnectivity-preserving deletes both occur, so the localized and
  // structural paths genuinely race.
  service.register_graph("shared", caveman(4, 6, 77));

  std::vector<std::thread> clients;
  clients.reserve(kUpdateClients);
  std::atomic<std::uint64_t> validation_errors{0};
  for (int c = 0; c < kUpdateClients; ++c) {
    clients.emplace_back([&service, &validation_errors, c] {
      std::mt19937_64 rng(0xadccULL + static_cast<std::uint64_t>(c));
      const auto initial = service.snapshot("shared");
      ASSERT_NE(initial, nullptr);
      const Vertex n = initial->num_vertices();
      for (int i = 0; i < kStepsPerClient; ++i) {
        Request request;
        if (i % 3 == 2) {
          request.kind = RequestKind::kSolve;
          request.graph = "shared";
          request.options.algorithm = Algorithm::kApgre;
        } else {
          request.kind = RequestKind::kUpdate;
          request.graph = "shared";
          const auto u = static_cast<Vertex>(rng() % n);
          const auto v = static_cast<Vertex>(rng() % n);
          request.update.ops.push_back(EdgeOp{u, v, rng() % 2 == 0});
        }
        const Response r = service.handle(request);
        if (!r.status.ok()) {
          // Racing updates legitimately fail validation; anything else
          // (scores for a missing graph, internal errors) is a bug.
          EXPECT_EQ(r.kind, RequestKind::kUpdate) << r.status.message;
          validation_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kUpdateClients *
                                                       kStepsPerClient));
  EXPECT_EQ(stats.errors, validation_errors.load());

  // Final consistency: whatever the cache did, served == fresh solve.
  Request solve;
  solve.kind = RequestKind::kSolve;
  solve.graph = "shared";
  solve.options.algorithm = Algorithm::kApgre;
  const Response served = service.handle(solve);
  ASSERT_TRUE(served.status.ok()) << served.status.message;
  const auto snap = service.snapshot("shared");
  ASSERT_NE(snap, nullptr);
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  expect_scores_near(betweenness(*snap, serial).scores, served.scores);
}

// Concurrent decompose + solve stress: APGRE solves run while updater
// threads mutate the same graph, so decompositions — inside racing Solvers
// and in the snapshot locality rebuild each structural update triggers —
// overlap with each other and with running kernels on the shared
// work-stealing scheduler. Racing updates may fail validation (tolerated,
// as above); what must hold under TSan is no data race between them, and
// that the final served scores match a fresh serial solve of the final
// snapshot.
TEST(ServiceStress, ConcurrentDecompositionsStayConsistent) {
  constexpr int kSolveClients = 4;
  constexpr int kUpdateClients = 2;
  constexpr int kStepsPerClient = 40;

  ServiceOptions options;
  options.workers = 4;
  options.session_capacity = 2;
  Service service(options);
  // Blocks chained by articulation points plus a pendant fringe: updates
  // hit both the localized and the structural (re-decompose) paths.
  service.register_graph("shared", attach_pendants(caveman(4, 6, 91), 12, 92));

  std::vector<std::thread> clients;
  clients.reserve(kSolveClients + kUpdateClients);
  for (int c = 0; c < kSolveClients + kUpdateClients; ++c) {
    clients.emplace_back([&service, c] {
      std::mt19937_64 rng(0xbccULL + static_cast<std::uint64_t>(c));
      const auto initial = service.snapshot("shared");
      ASSERT_NE(initial, nullptr);
      const Vertex n = initial->num_vertices();
      for (int i = 0; i < kStepsPerClient; ++i) {
        Request request;
        request.graph = "shared";
        if (c < kSolveClients) {
          request.kind = RequestKind::kSolve;
          request.options.algorithm = Algorithm::kApgre;
        } else {
          request.kind = RequestKind::kUpdate;
          const auto u = static_cast<Vertex>(rng() % n);
          const auto v = static_cast<Vertex>(rng() % n);
          request.update.ops.push_back(EdgeOp{u, v, rng() % 2 == 0});
        }
        const Response r = service.handle(request);
        if (!r.status.ok()) {
          EXPECT_EQ(r.kind, RequestKind::kUpdate) << r.status.message;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  Request solve;
  solve.kind = RequestKind::kSolve;
  solve.graph = "shared";
  solve.options.algorithm = Algorithm::kApgre;
  const Response served = service.handle(solve);
  ASSERT_TRUE(served.status.ok()) << served.status.message;
  const auto snap = service.snapshot("shared");
  ASSERT_NE(snap, nullptr);
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  expect_scores_near(betweenness(*snap, serial).scores, served.scores);
}

/// A `side` x `side` grid (one block, no articulation points) with a
/// triangle hung off vertex 0: re-scoring the grid block after a chord
/// costs a full Brandes over it, so a local write stays in flight long
/// enough for another graph's reads to run beside it.
CsrGraph grid_with_triangle(Vertex side) {
  EdgeList edges;
  for (Vertex r = 0; r < side; ++r) {
    for (Vertex c = 0; c < side; ++c) {
      const Vertex v = r * side + c;
      if (c + 1 < side) edges.push_back({v, v + 1});
      if (r + 1 < side) edges.push_back({v, v + side});
    }
  }
  const Vertex n = side * side;
  edges.push_back({0, n});
  edges.push_back({n, n + 1});
  edges.push_back({n + 1, 0});
  return CsrGraph::undirected_from_edges(n + 2, edges);
}

// Cross-tenant isolation: a write patches its graph's warm session under
// that graph's own lock, never under the session-cache lock every graph's
// requests share. So while a slow local write re-scores graph A's large
// block, cached top_k reads of graph B keep completing: no B read may
// take even half as long as the write. (With the patch under the shared
// lock, a B read issued during the patch waits for all of it.)
TEST(ServiceStress, ReadsOfOneGraphRunBesideAnotherGraphsWrite) {
  using Clock = std::chrono::steady_clock;
  ServiceOptions options;
  Service service(options);
  constexpr Vertex kSide = 40;
  service.register_graph("a", grid_with_triangle(kSide));
  service.register_graph("b", shared_graph());

  Request solve_a;
  solve_a.kind = RequestKind::kSolve;
  solve_a.graph = "a";
  // One worker for A's session: its write then re-scores the grid on the
  // writer's thread alone, leaving the other cores to B's reads.
  solve_a.options.threads = 1;
  Request top_b;
  top_b.kind = RequestKind::kTopK;
  top_b.graph = "b";
  top_b.k = 6;
  ASSERT_TRUE(service.handle(solve_a).status.ok());
  ASSERT_TRUE(service.handle(top_b).status.ok());  // B's session is warm

  // A diagonal chord inside the grid block: local, one block re-score.
  Request write;
  write.kind = RequestKind::kUpdate;
  write.graph = "a";
  write.update.ops.push_back(EdgeOp{kSide + 1, 2 * kSide + 2, true});

  std::atomic<bool> writing{true};
  double write_seconds = 0.0;
  Response written;
  std::thread writer([&] {
    const Clock::time_point start = Clock::now();
    written = service.handle(write);
    write_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    writing.store(false, std::memory_order_release);
  });
  int reads_during_write = 0;
  double longest_read = 0.0;
  while (writing.load(std::memory_order_acquire)) {
    const Clock::time_point start = Clock::now();
    const Response r = service.handle(top_b);
    longest_read = std::max(
        longest_read,
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!r.status.ok()) {
      ADD_FAILURE() << r.status.message;
      break;
    }
    EXPECT_TRUE(r.session_hit);
    if (writing.load(std::memory_order_acquire)) ++reads_during_write;
  }
  writer.join();

  ASSERT_TRUE(written.status.ok()) << written.status.message;
  EXPECT_EQ(written.locality, UpdateLocality::kLocalInsert);
  EXPECT_EQ(service.stats().local_recomputes, 1u)
      << "the write must have patched A's warm session";
  EXPECT_GT(reads_during_write, 0) << "no B read completed during the write";
  EXPECT_LT(longest_read, 0.5 * write_seconds)
      << "a B read waited on A's write: longest read " << longest_read
      << " s, write " << write_seconds << " s, " << reads_during_write
      << " reads completed during the write";

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  Request solve_b = top_b;
  solve_b.kind = RequestKind::kSolve;
  for (const Request* solve : {&solve_a, &solve_b}) {
    const Response served = service.handle(*solve);
    ASSERT_TRUE(served.status.ok()) << served.status.message;
    EXPECT_TRUE(served.session_hit) << solve->graph;
    const auto snap = service.snapshot(solve->graph);
    ASSERT_NE(snap, nullptr);
    expect_scores_near(betweenness(*snap, serial).scores, served.scores);
  }
}

// Copy-on-write under a pinned reader: a write never edits a snapshot
// that someone still holds. Each round a reader holds the pre-write
// snapshot while a serial solve keeps the warm session checked out, and a
// local write lands. The held graph must stay intact (same arcs, not the
// graph the service now serves), and a session that was out during the
// write must come back stale: the next solve rebinds it (patch_missed) and
// reports no session hit. Whether the write lands while the session is out
// depends on timing, so rounds repeat until it has happened a few times.
TEST(ServiceStress, PinnedReaderKeepsItsSnapshotAcrossWrites) {
  ServiceOptions options;
  options.session_capacity = 1;
  Service service(options);
  constexpr Vertex kSide = 30;
  service.register_graph("g", grid_with_triangle(kSide));
  Request solve;
  solve.kind = RequestKind::kSolve;
  solve.graph = "g";
  Request slow_solve = solve;
  slow_solve.options.algorithm = Algorithm::kBrandesSerial;
  ASSERT_TRUE(service.handle(solve).status.ok());  // the session is warm

  // A diagonal chord inside the grid block, toggled: always local.
  bool chord = false;
  int missed = 0;
  for (int round = 0; round < 40 && missed < 3; ++round) {
    const std::shared_ptr<const CsrGraph> pinned = service.snapshot("g");
    const CsrGraph before = *pinned;
    const ServiceStats stats_before = service.stats();

    std::atomic<bool> solved{false};
    std::thread reader([&] {
      const Response r = service.handle(slow_solve);
      EXPECT_TRUE(r.status.ok()) << r.status.message;
      solved.store(true);
    });
    // The session leaves the cache while the serial solve runs.
    while (service.session_count() != 0 && !solved.load()) {
      std::this_thread::yield();
    }
    Request write;
    write.kind = RequestKind::kUpdate;
    write.graph = "g";
    write.update.ops.push_back(EdgeOp{kSide + 1, 2 * kSide + 2, !chord});
    const Response written = service.handle(write);
    reader.join();
    ASSERT_TRUE(written.status.ok()) << written.status.message;
    ASSERT_NE(written.locality, UpdateLocality::kStructural);
    chord = !chord;

    // The reader's graph is the pre-write graph, intact.
    EXPECT_EQ(*pinned, before) << "round " << round;
    EXPECT_EQ(has_arc(*pinned, kSide + 1, 2 * kSide + 2), !chord);
    const std::shared_ptr<const CsrGraph> current = service.snapshot("g");
    EXPECT_NE(current, pinned) << "round " << round;
    EXPECT_EQ(has_arc(*current, kSide + 1, 2 * kSide + 2), chord);

    // A write that found no session in the cache patched nothing: the
    // session it missed must not be served as fresh.
    const bool session_was_out =
        service.stats().local_recomputes == stats_before.local_recomputes;
    const Response served = service.handle(solve);
    ASSERT_TRUE(served.status.ok()) << served.status.message;
    if (session_was_out) {
      ++missed;
      EXPECT_FALSE(served.session_hit) << "round " << round;
      EXPECT_EQ(service.stats().patch_missed, stats_before.patch_missed + 1);
    } else {
      EXPECT_TRUE(served.session_hit) << "round " << round;
    }
    expect_scores_near(brandes_bc(*current), served.scores);
  }
  EXPECT_GT(missed, 0) << "no write landed while the session was out";
}

// Shutdown with work still queued: the destructor must drain every queued
// request (futures all become ready) without racing the worker pool.
TEST(ServiceStress, DestructorDrainsQueuedRequests) {
  std::vector<std::future<Response>> futures;
  {
    ServiceOptions options;
    options.workers = 2;
    Service service(options);
    service.register_graph("g", caveman(3, 4, 9));
    for (int i = 0; i < 32; ++i) {
      Request request;
      request.kind = RequestKind::kTopK;
      request.graph = "g";
      request.k = 3;
      request.options.algorithm = Algorithm::kBrandesSerial;
      futures.push_back(service.submit(std::move(request)));
    }
  }  // ~Service joins here
  for (std::future<Response>& f : futures) {
    const Response r = f.get();  // must not throw broken_promise
    EXPECT_TRUE(r.status.ok()) << r.status.message;
  }
}

}  // namespace
}  // namespace apgre
