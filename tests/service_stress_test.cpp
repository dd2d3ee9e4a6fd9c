// Concurrency stress tier for apgre::Service (runs under TSan in CI
// alongside parallel_stress_test): 8 client threads × 100 mixed
// solve/top_k/update requests against one Service. Each client owns a
// private graph — nobody else mutates it, so the client's request stream
// has deterministic results regardless of thread interleaving — and also
// hammers a shared read-only graph to contend on the LRU cache and the
// worker pool. After the concurrent run, every client's recorded stream is
// replayed on a fresh single-threaded Service and each response must match
// the replay within the harness tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bc/bc.hpp"
#include "bcc/parallel_bicomp.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
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

/// CI matrix knob: APGRE_STRESS_PARALLEL_BCC=on forces the parallel
/// biconnectivity pass (bcc/parallel_bicomp.hpp) for every decomposition in
/// this suite — snapshot locality rebuilds and APGRE solves alike — so the
/// TSan tier races parallel decompositions against each other and against
/// running kernels on the shared scheduler. Default is kAuto, which at
/// these graph sizes means the serial DFS (the pre-existing coverage).
ParallelDecomposition parallel_bcc_for_stress() {
  const char* env = std::getenv("APGRE_STRESS_PARALLEL_BCC");
  return env != nullptr && std::strcmp(env, "on") == 0
             ? ParallelDecomposition::kOn
             : ParallelDecomposition::kAuto;
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
    request.options.apgre.partition.parallel_decomposition =
        parallel_bcc_for_stress();
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
            request.options.apgre.partition.parallel_decomposition =
            parallel_bcc_for_stress();
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
  options.parallel_decomposition = parallel_bcc_for_stress();
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

// Concurrent decompose + solve stress: every APGRE solve forces the
// parallel biconnectivity pass (kOn) while updater threads mutate the same
// graph, so parallel decompositions — inside racing Solvers and in the
// snapshot locality rebuild each structural update triggers — overlap with
// each other and with running kernels on the shared work-stealing
// scheduler. Racing updates may fail validation (tolerated, as above);
// what must hold under TSan is no data race in the parallel pass's
// frontier expansion / union-find / canonicalization, and that the final
// served scores match a fresh serial solve of the final snapshot.
TEST(ServiceStress, ConcurrentParallelDecompositionsStayConsistent) {
  constexpr int kSolveClients = 4;
  constexpr int kUpdateClients = 2;
  constexpr int kStepsPerClient = 40;

  ServiceOptions options;
  options.workers = 4;
  options.session_capacity = 2;
  options.parallel_decomposition = ParallelDecomposition::kOn;
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
          request.options.apgre.partition.parallel_decomposition =
              ParallelDecomposition::kOn;
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
  solve.options.apgre.partition.parallel_decomposition =
      ParallelDecomposition::kOn;
  const Response served = service.handle(solve);
  ASSERT_TRUE(served.status.ok()) << served.status.message;
  const auto snap = service.snapshot("shared");
  ASSERT_NE(snap, nullptr);
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  expect_scores_near(betweenness(*snap, serial).scores, served.scores);
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
