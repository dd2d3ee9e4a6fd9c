// apgre::Service unit tier: registry semantics, warm-session LRU behaviour,
// AP-aware update invalidation (the cached decomposition must survive an
// edge insert strictly inside one biconnected component — the paper's
// locality argument applied to serving), error responses, and a
// property-based cache-soundness sweep that replays random
// register/solve/update/evict sequences against a fresh-solve oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "service/service.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using testing::expect_scores_near;

std::uint64_t decompositions() {
  return metrics().counter("bcc.decompositions").value();
}

/// Single worker / tiny cache: the unit tier drives the service through
/// handle() and wants deterministic, inspectable cache behaviour.
ServiceOptions unit_options(std::size_t capacity = 4) {
  ServiceOptions options;
  options.workers = 1;
  options.session_capacity = capacity;
  return options;
}

Request solve_request(const std::string& graph,
                      Algorithm algorithm = Algorithm::kApgre) {
  Request request;
  request.kind = RequestKind::kSolve;
  request.graph = graph;
  request.options.algorithm = algorithm;
  return request;
}

Request update_request(const std::string& graph, Vertex u, Vertex v,
                       bool inserting) {
  Request request;
  request.kind = RequestKind::kUpdate;
  request.graph = graph;
  request.update.ops.push_back(EdgeOp{u, v, inserting});
  return request;
}

/// Fresh-solve oracle: serial Brandes on the service's current snapshot.
std::vector<double> oracle_scores(const Service& service,
                                  const std::string& name) {
  const auto snap = service.snapshot(name);
  EXPECT_NE(snap, nullptr);
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  return betweenness(*snap, serial).scores;
}

TEST(Service, SolveMatchesFreshBetweenness) {
  Service service(unit_options());
  const CsrGraph g = attach_pendants(caveman(5, 5, 21), 10, 22);
  service.register_graph("g", g);

  for (Algorithm a : {Algorithm::kBrandesSerial, Algorithm::kApgre}) {
    const Response r = service.handle(solve_request("g", a));
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    expect_scores_near(oracle_scores(service, "g"), r.scores);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, TopKIsSortedPrefixOfScores) {
  Service service(unit_options());
  service.register_graph("g", caveman(4, 5, 33));

  const Response full = service.handle(solve_request("g"));
  ASSERT_TRUE(full.status.ok());

  Request top;
  top.kind = RequestKind::kTopK;
  top.graph = "g";
  top.k = 5;
  const Response r = service.handle(top);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  ASSERT_EQ(r.top.size(), 5u);

  // Expected ranking: score descending, vertex id ascending on ties.
  std::vector<Vertex> order(full.scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<Vertex>(i);
  }
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    if (full.scores[a] != full.scores[b]) {
      return full.scores[a] > full.scores[b];
    }
    return a < b;
  });
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    EXPECT_EQ(r.top[i].vertex, order[i]) << "rank " << i;
    EXPECT_DOUBLE_EQ(r.top[i].score, full.scores[order[i]]);
  }
}

TEST(Service, WarmSessionIsReused) {
  Service service(unit_options());
  service.register_graph("g", caveman(4, 4, 5));

  EXPECT_FALSE(service.handle(solve_request("g")).session_hit);
  const std::uint64_t after_first = decompositions();
  const Response second = service.handle(solve_request("g"));
  EXPECT_TRUE(second.session_hit);
  EXPECT_EQ(decompositions(), after_first)
      << "a warm session must reuse the cached decomposition";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.session_hits, 1u);
  EXPECT_EQ(stats.session_misses, 1u);
  EXPECT_EQ(service.session_count(), 1u);
}

// The acceptance criterion: an edge update strictly inside one biconnected
// component (chord between two non-articulation vertices) must NOT
// increment bcc.decompositions — the cached decomposition is patched, not
// recomputed — and the patched solver must still agree with a fresh solve.
TEST(Service, LocalUpdateKeepsCachedDecomposition) {
  Service service(unit_options());
  // Two cycles sharing articulation point 0: C6 {0..5} and C4 {0,6,7,8}.
  EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
                 {0, 6}, {6, 7}, {7, 8}, {8, 0}};
  service.register_graph("g", CsrGraph::undirected_from_edges(9, edges));

  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());
  const std::uint64_t after_first = decompositions();

  // Chord 1-3 inside the C6 block: both endpoints non-AP, same block.
  const Response update = service.handle(update_request("g", 1, 3, true));
  ASSERT_TRUE(update.status.ok()) << update.status.message;
  EXPECT_EQ(update.locality, UpdateLocality::kLocalInsert);
  EXPECT_EQ(update.affected_sources, 6u) << "the C6 block has six vertices";

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok()) << solved.status.message;
  EXPECT_TRUE(solved.session_hit);
  EXPECT_EQ(decompositions(), after_first)
      << "local update must not re-decompose";
  expect_scores_near(oracle_scores(service, "g"), solved.scores);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.local_recomputes, 1u)
      << "the cached session must have been patched in place";
  EXPECT_EQ(stats.full_invalidations, 0u);
}

// The delete-side acceptance criterion: removing an edge whose block stays
// one biconnected component (a chord of a dense block) must patch the
// cached session in place — no re-decomposition, no full invalidation —
// and still serve scores matching a fresh solve.
TEST(Service, LocalDeletePatchesSessionWithoutRedecomposition) {
  Service service(unit_options());
  // K5 on {0..4} sharing articulation point 0 with cycle {0,5,6}.
  EdgeList edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
                 {2, 3}, {2, 4}, {3, 4}, {0, 5}, {5, 6}, {6, 0}};
  service.register_graph("g", CsrGraph::undirected_from_edges(7, edges));

  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());
  const std::uint64_t after_first = decompositions();

  // K5 minus the edge 1-2 is still one biconnected component.
  const Response update = service.handle(update_request("g", 1, 2, false));
  ASSERT_TRUE(update.status.ok()) << update.status.message;
  EXPECT_EQ(update.locality, UpdateLocality::kLocalDelete);
  EXPECT_EQ(update.affected_sources, 5u) << "the K5 block has five vertices";

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok()) << solved.status.message;
  EXPECT_TRUE(solved.session_hit);
  EXPECT_EQ(decompositions(), after_first)
      << "a biconnectivity-preserving delete must not re-decompose";
  expect_scores_near(oracle_scores(service, "g"), solved.scores);
  EXPECT_EQ(service.stats().local_recomputes, 1u);
  EXPECT_EQ(service.stats().full_invalidations, 0u);
}

TEST(Service, StructuralUpdateRedecomposes) {
  Service service(unit_options());
  EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
                 {0, 6}, {6, 7}, {7, 8}, {8, 0}};
  service.register_graph("g", CsrGraph::undirected_from_edges(9, edges));
  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());
  const std::uint64_t after_first = decompositions();

  // 1-7 bridges the two blocks (through vertices on either side of AP 0).
  const Response update = service.handle(update_request("g", 1, 7, true));
  ASSERT_TRUE(update.status.ok()) << update.status.message;
  EXPECT_EQ(update.locality, UpdateLocality::kStructural);

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok());
  EXPECT_EQ(decompositions(), after_first + 1)
      << "structural update must re-decompose";
  expect_scores_near(oracle_scores(service, "g"), solved.scores);
}

// Deleting a cycle edge leaves a path — the block dissolves into bridges,
// so the classifier must go structural (unlike a chord delete, which stays
// local; see LocalDeletePatchesSessionWithoutRedecomposition).
TEST(Service, BlockDissolvingRemovalIsStructural) {
  Service service(unit_options());
  service.register_graph("g", cycle(6));
  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());

  const Response update = service.handle(update_request("g", 2, 3, false));
  ASSERT_TRUE(update.status.ok()) << update.status.message;
  EXPECT_EQ(update.locality, UpdateLocality::kStructural);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.updates_structural, 1u);
  EXPECT_EQ(stats.updates_local, 0u);
  EXPECT_EQ(stats.full_invalidations, 1u);

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok());
  expect_scores_near(oracle_scores(service, "g"), solved.scores);
}

// Satellite regression: directed graphs never take the localized path —
// the block-cut machinery is undirected, so every directed update must be
// conservatively structural regardless of where the edge lands.
TEST(Service, DirectedUpdatesAreConservativelyStructural) {
  Service service(unit_options());
  // A directed 4-cycle: 0 -> 1 -> 2 -> 3 -> 0.
  EdgeList arcs{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  service.register_graph("g", CsrGraph::from_edges(4, arcs, /*directed=*/true));
  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());

  const Response insert = service.handle(update_request("g", 0, 2, true));
  ASSERT_TRUE(insert.status.ok()) << insert.status.message;
  EXPECT_EQ(insert.locality, UpdateLocality::kStructural);
  const Response remove = service.handle(update_request("g", 0, 2, false));
  ASSERT_TRUE(remove.status.ok()) << remove.status.message;
  EXPECT_EQ(remove.locality, UpdateLocality::kStructural);
  EXPECT_EQ(service.stats().updates_structural, 2u);
  EXPECT_EQ(service.stats().updates_local, 0u);

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok());
  expect_scores_near(oracle_scores(service, "g"), solved.scores);
}

// ---- 2-core peel service lifecycle --------------------------------------

Request peeled_solve_request(const std::string& graph) {
  Request request = solve_request(graph);
  request.options.apgre.partition.peel_two_core = true;
  return request;
}

TEST(Service, PeeledSolveMatchesOracleAndSharesTheSnapshotPeel) {
  Service service(unit_options());
  const CsrGraph g =
      attach_pendants(attach_chains(caveman(4, 4, 3), 4, 3, 4), 8, 5);
  service.register_graph("g", g);

  const std::uint64_t runs_before =
      metrics().counter("graph.peel.runs").value();
  const Response first = service.handle(peeled_solve_request("g"));
  ASSERT_TRUE(first.status.ok()) << first.status.message;
  expect_scores_near(oracle_scores(service, "g"), first.scores);
  EXPECT_EQ(metrics().counter("graph.peel.runs").value(), runs_before + 1);

  // Warm session: the snapshot-wide peel is adopted, not recomputed, and
  // the peeled decomposition cache survives.
  const std::uint64_t dec_after = decompositions();
  const Response second = service.handle(peeled_solve_request("g"));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.session_hit);
  EXPECT_EQ(metrics().counter("graph.peel.runs").value(), runs_before + 1)
      << "one peel per snapshot, shared by warm sessions";
  EXPECT_EQ(decompositions(), dec_after);
  EXPECT_EQ(first.scores, second.scores);
}

TEST(Service, StructuralUpdateResetsTheSnapshotPeel) {
  Service service(unit_options());
  // Cycle core {0..5} with the chain 0-6-7 hanging off it.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {6, 7}});
  service.register_graph("g", g);
  ASSERT_TRUE(service.handle(peeled_solve_request("g")).status.ok());

  // Deleting the forest edge 6-7 is structural and reshapes the peel
  // (vertex count unchanged, so only an explicit reset catches it).
  const std::uint64_t runs_before =
      metrics().counter("graph.peel.runs").value();
  const Response update = service.handle(update_request("g", 6, 7, false));
  ASSERT_TRUE(update.status.ok()) << update.status.message;
  const Response after = service.handle(peeled_solve_request("g"));
  ASSERT_TRUE(after.status.ok()) << after.status.message;
  expect_scores_near(oracle_scores(service, "g"), after.scores);
  EXPECT_EQ(metrics().counter("graph.peel.runs").value(), runs_before + 1)
      << "a structural update must drop the snapshot peel and re-peel";
}

TEST(Service, LruEvictsLeastRecentlyUsedSession) {
  Service service(unit_options(/*capacity=*/2));
  service.register_graph("a", cycle(5));
  service.register_graph("b", cycle(6));
  service.register_graph("c", cycle(7));

  ASSERT_TRUE(service.handle(solve_request("a")).status.ok());
  ASSERT_TRUE(service.handle(solve_request("b")).status.ok());
  ASSERT_TRUE(service.handle(solve_request("c")).status.ok());  // evicts "a"
  EXPECT_EQ(service.session_count(), 2u);
  EXPECT_EQ(service.stats().session_evictions, 1u);

  // "b" is still warm, "a" went cold.
  EXPECT_TRUE(service.handle(solve_request("b")).session_hit);
  EXPECT_FALSE(service.handle(solve_request("a")).session_hit);
}

TEST(Service, EvictSessionsForcesColdSolves) {
  Service service(unit_options());
  service.register_graph("g", cycle(8));
  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());
  EXPECT_EQ(service.evict_sessions(), 1u);
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_FALSE(service.handle(solve_request("g")).session_hit);
}

TEST(Service, RegisterReplacesGraphAndDropsSession) {
  Service service(unit_options());
  service.register_graph("g", cycle(5));
  ASSERT_TRUE(service.handle(solve_request("g")).status.ok());

  service.register_graph("g", cycle(9));
  const Response r = service.handle(solve_request("g"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.session_hit) << "replacement must invalidate the session";
  EXPECT_EQ(r.scores.size(), 9u);
}

TEST(Service, UnregisterRemovesGraph) {
  Service service(unit_options());
  service.register_graph("g", cycle(5));
  EXPECT_TRUE(service.unregister_graph("g"));
  EXPECT_FALSE(service.unregister_graph("g"));
  const Response r = service.handle(solve_request("g"));
  EXPECT_FALSE(r.status.ok());
  EXPECT_NE(r.status.message.find("unknown graph"), std::string::npos);
}

TEST(Service, ErrorResponsesDoNotMutateState) {
  Service service(unit_options());
  service.register_graph("g", cycle(6));
  const std::vector<double> before = oracle_scores(service, "g");

  // Unknown graph, bad k, out-of-range endpoint, duplicate insert, absent
  // removal, invalid options: all answered, none fatal, none mutating.
  EXPECT_FALSE(service.handle(solve_request("missing")).status.ok());
  Request bad_k;
  bad_k.kind = RequestKind::kTopK;
  bad_k.graph = "g";
  bad_k.k = 0;
  EXPECT_FALSE(service.handle(bad_k).status.ok());
  EXPECT_FALSE(service.handle(update_request("g", 0, 99, true)).status.ok());
  EXPECT_FALSE(service.handle(update_request("g", 0, 1, true)).status.ok())
      << "edge 0-1 already exists";
  EXPECT_FALSE(service.handle(update_request("g", 0, 3, false)).status.ok())
      << "edge 0-3 does not exist";
  Request bad_options = solve_request("g");
  bad_options.options.threads = -1;
  const Response invalid = service.handle(bad_options);
  EXPECT_FALSE(invalid.status.ok());
  EXPECT_NE(invalid.status.message.find("threads"), std::string::npos);

  EXPECT_EQ(service.stats().errors, 6u);
  const Response good = service.handle(solve_request("g"));
  ASSERT_TRUE(good.status.ok());
  expect_scores_near(before, good.scores);
}

TEST(Service, BatchPreservesRequestOrder) {
  Service service(unit_options());
  service.register_graph("g", cycle(8));

  std::vector<Request> batch;
  batch.push_back(solve_request("g", Algorithm::kBrandesSerial));
  Request top;
  top.kind = RequestKind::kTopK;
  top.graph = "g";
  top.k = 3;
  batch.push_back(top);
  batch.push_back(update_request("g", 0, 3, true));
  batch.push_back(solve_request("g", Algorithm::kApgre));

  const std::vector<Response> responses = service.run_batch(batch);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].kind, RequestKind::kSolve);
  EXPECT_EQ(responses[1].kind, RequestKind::kTopK);
  EXPECT_EQ(responses[2].kind, RequestKind::kUpdate);
  EXPECT_EQ(responses[3].kind, RequestKind::kSolve);
  for (const Response& r : responses) EXPECT_TRUE(r.status.ok()) << r.status.message;
  expect_scores_near(oracle_scores(service, "g"), responses[3].scores);
}

// Property-based cache soundness: a random register/solve/update/evict
// sequence over the seeded corpus, checked against the fresh-solve oracle
// after every step. Whatever the cache did — hit, patch, rebind, evict —
// served scores must match a from-scratch solve on the current snapshot.
TEST(Service, RandomSequencesMatchFreshSolveOracle) {
  constexpr std::uint64_t kSeeds = 3;
  constexpr int kStepsPerCase = 12;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Service service(unit_options(/*capacity=*/2));
    std::vector<std::string> names;
    for (CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      if (c.graph.num_vertices() < 3) continue;
      names.push_back(c.name);
      service.register_graph(c.name, std::move(c.graph));
      if (names.size() == 3) break;  // bound runtime; capacity 2 < graphs 3
    }
    ASSERT_GE(names.size(), 2u) << "corpus too small for the sweep";

    std::mt19937_64 rng(seed * 7919);
    for (int step = 0; step < kStepsPerCase; ++step) {
      const std::string& name = names[rng() % names.size()];
      switch (rng() % 4) {
        case 0: {  // update with a valid random mutation
          const auto snap = service.snapshot(name);
          ASSERT_NE(snap, nullptr);
          const std::vector<DynamicStep> steps =
              random_dynamic_steps(*snap, 1, rng());
          if (steps.empty()) break;
          const Response r = service.handle(update_request(
              name, steps[0].u, steps[0].v, steps[0].inserting));
          EXPECT_TRUE(r.status.ok()) << name << ": " << r.status.message;
          break;
        }
        case 1:
          service.evict_sessions();
          break;
        default:
          break;  // plain solve below is the step
      }
      const Response solved = service.handle(solve_request(name));
      ASSERT_TRUE(solved.status.ok()) << name << ": " << solved.status.message;
      expect_scores_near(oracle_scores(service, name), solved.scores);
    }
  }
}

}  // namespace
}  // namespace apgre
