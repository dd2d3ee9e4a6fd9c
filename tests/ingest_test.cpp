// Batched streaming ingest (graph/update.hpp + BlockCutQueries::
// classify_batch + the MutableGraph ingest step that IncrementalBc::
// apply_batch and the service's update path share). The tests pin the coalescing algebra (cancel, dedupe, stable
// timestamp order, reject-before-mutate), the whole-batch classification
// (one survival check per block, strictly more precise than per-edge), the
// acceptance criterion that an all-local batch of k edges in one block
// re-solves exactly 1 block with 0 re-decompositions, the binary
// edge-batch frame format, the snapshot ownership rule (edited in place
// when unshared, copied when a handle is alive), the deferred edit (a
// local batch leaves the CSR arrays as they are until a read or a
// structural batch folds it), and the service-level batch counters. The
// randomized trajectories drive IncrementalBc and a Service through the
// same batches (equal counters and scores), diff against a replay of
// one-op batches AND a fresh static Brandes solve after every batch; a
// 64-batch all-local caveman stream must never downgrade, re-decompose or
// fold;
// the concurrent test interleaves batches with solves across the worker
// pool (run under TSan in CI).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bc/brandes.hpp"
#include "bc/incremental.hpp"
#include "bcc/mutable_graph.hpp"
#include "bcc/queries.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/update.hpp"
#include "service/service.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using testing::expect_scores_near;

std::uint64_t decompositions() {
  return metrics().counter("bcc.decompositions").value();
}

std::uint64_t peel_runs() {
  return metrics().counter("graph.peel.runs").value();
}

/// Two K6 cliques sharing articulation point 5: two dense blocks, each
/// tolerating several disjoint chord deletions without losing
/// biconnectivity.
CsrGraph two_k6() {
  EdgeList edges;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) edges.push_back(Edge{u, v});
  }
  for (Vertex u = 5; u < 11; ++u) {
    for (Vertex v = u + 1; v < 11; ++v) edges.push_back(Edge{u, v});
  }
  return CsrGraph::undirected_from_edges(11, std::move(edges));
}

EdgeOp op(Vertex u, Vertex v, bool insert, std::uint64_t t = 0) {
  EdgeOp e;
  e.u = u;
  e.v = v;
  e.insert = insert;
  e.timestamp = t;
  return e;
}

// ---------------------------------------------------------------------------
// Coalescing algebra.

TEST(Coalesce, InsertThenDeleteCancels) {
  const CsrGraph g = cycle(4);
  const CoalesceResult r =
      coalesce_batch(g, {op(0, 2, true, 0), op(0, 2, false, 1)});
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_TRUE(r.survivors.empty());
  EXPECT_EQ(r.coalesced_away, 2u);
}

TEST(Coalesce, DeleteThenReinsertIsNoOp) {
  const CsrGraph g = cycle(4);
  const CoalesceResult r =
      coalesce_batch(g, {op(0, 1, false, 0), op(0, 1, true, 1)});
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_TRUE(r.survivors.empty());
  EXPECT_EQ(r.coalesced_away, 2u);
}

TEST(Coalesce, RepeatedOpDedupes) {
  const CsrGraph g = cycle(4);
  const CoalesceResult r =
      coalesce_batch(g, {op(0, 2, true, 0), op(0, 2, true, 1)});
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  ASSERT_EQ(r.survivors.size(), 1u);
  EXPECT_EQ(r.coalesced_away, 1u);
  EXPECT_TRUE(r.survivors[0].insert);
}

TEST(Coalesce, TimestampOrderBeatsArrivalOrder) {
  // Textually the insert of the present edge 0-1 comes first, which would
  // reject; ordered by timestamp the delete folds first and the pair
  // cancels. Survival of this batch is the witness that coalescing sorts.
  const CsrGraph g = cycle(4);
  const CoalesceResult r =
      coalesce_batch(g, {op(0, 1, true, 2), op(0, 1, false, 1)});
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_TRUE(r.survivors.empty());
  EXPECT_EQ(r.coalesced_away, 2u);
}

TEST(Coalesce, SurvivorsComeOutInTimestampOrder) {
  const CsrGraph g = cycle(5);
  const CoalesceResult r = coalesce_batch(
      g, {op(1, 3, true, 7), op(0, 2, true, 3), op(2, 4, true, 5)});
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  ASSERT_EQ(r.survivors.size(), 3u);
  EXPECT_EQ(r.coalesced_away, 0u);
  EXPECT_EQ(r.survivors[0].timestamp, 3u);
  EXPECT_EQ(r.survivors[1].timestamp, 5u);
  EXPECT_EQ(r.survivors[2].timestamp, 7u);
}

TEST(Coalesce, RejectsMatchMutateHelperMessages) {
  const CsrGraph g = cycle(4);
  EXPECT_EQ(coalesce_batch(g, {op(0, 1, true)}).status.message,
            "arc already present");
  EXPECT_EQ(coalesce_batch(g, {op(0, 2, false)}).status.message,
            "arc not present");
  EXPECT_NE(coalesce_batch(g, {op(1, 1, true)})
                .status.message.find("self-loops"),
            std::string::npos);
  EXPECT_NE(coalesce_batch(g, {op(0, 9, true)})
                .status.message.find("out of range"),
            std::string::npos);
  EdgeOp weighted = op(0, 2, true);
  weighted.weight = 2.5;
  EXPECT_NE(coalesce_batch(g, {weighted})
                .status.message.find("non-unit edge weights"),
            std::string::npos);
  // A rejected batch reports no survivors even when other ops were fine.
  const CoalesceResult r =
      coalesce_batch(g, {op(0, 2, true, 0), op(0, 1, true, 1)});
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.survivors.empty());
}

// ---------------------------------------------------------------------------
// Whole-batch classification.

TEST(ClassifyBatch, GroupsOpsByBlock) {
  const CsrGraph g = two_k6();
  const BlockCutQueries queries(g);
  const BatchClassification c = queries.classify_batch(
      {op(0, 1, false, 0), op(2, 3, false, 1), op(6, 7, false, 2)});
  EXPECT_FALSE(c.structural);
  ASSERT_EQ(c.groups.size(), 2u);
  EXPECT_EQ(c.groups[0].ops.size(), 2u);
  EXPECT_EQ(c.groups[1].ops.size(), 1u);
  EXPECT_TRUE(c.groups[0].has_delete);
}

TEST(ClassifyBatch, ApEndpointInsertDowngrades) {
  const CsrGraph g = two_k6();
  const BlockCutQueries queries(g);
  // Vertex 5 is the articulation point; re-wiring it may merge blocks.
  const BatchClassification c =
      queries.classify_batch({op(0, 1, false, 0), op(5, 0, true, 1)});
  EXPECT_TRUE(c.structural);
  EXPECT_TRUE(c.groups.empty());
}

TEST(ClassifyBatch, CrossBlockInsertDowngrades) {
  const CsrGraph g = two_k6();
  const BlockCutQueries queries(g);
  const BatchClassification c = queries.classify_batch({op(0, 6, true, 0)});
  EXPECT_TRUE(c.structural);
}

TEST(ClassifyBatch, BlockDissolvingDeleteDowngrades) {
  // Deleting a C4 edge leaves a path: the block no longer survives.
  const CsrGraph g = cycle(4);
  const BlockCutQueries queries(g);
  const BatchClassification c = queries.classify_batch({op(0, 1, false, 0)});
  EXPECT_TRUE(c.structural);
}

TEST(ClassifyBatch, SameBatchRepairIsMorePreciseThanPerEdge) {
  // Per edge, deleting (0,1) from C4 is structural (see above). Judged as
  // a whole, the same batch's chords (0,2) and (1,3) restore the block's
  // biconnectivity, so the batch stays local — the amortisation is not
  // just cheaper, it is strictly more precise.
  const CsrGraph g = cycle(4);
  const BlockCutQueries queries(g);
  EXPECT_TRUE(queries.classify_batch({op(0, 1, false, 0)}).structural);
  const BatchClassification c = queries.classify_batch(
      {op(0, 1, false, 0), op(0, 2, true, 1), op(1, 3, true, 2)});
  EXPECT_FALSE(c.structural);
  ASSERT_EQ(c.groups.size(), 1u);
  EXPECT_EQ(c.groups[0].ops.size(), 3u);
}

// ---------------------------------------------------------------------------
// IncrementalBc::apply_batch.

// The acceptance criterion: an all-local batch of k edges inside one block
// triggers exactly ONE block re-solve and ZERO re-decompositions.
TEST(ApplyBatch, OneBlockBatchResolvesOnce) {
  IncrementalBc engine(two_k6());
  const std::uint64_t base = decompositions();

  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(2, 3, false, 1), op(1, 4, false, 2)};
  const BatchStats stats = engine.apply_batch(batch);
  EXPECT_EQ(stats.batch_edges, 3u);
  EXPECT_EQ(stats.coalesced_away, 0u);
  EXPECT_EQ(stats.blocks_resolved, 1u)
      << "k edges in one block must re-solve that block exactly once";
  EXPECT_EQ(stats.batch_downgrades, 0u);
  EXPECT_EQ(decompositions(), base) << "a local batch must not re-decompose";
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  // Re-inserting the chords is the mirror batch: same invariants.
  UpdateRequest restore;
  restore.ops = {op(0, 1, true, 3), op(2, 3, true, 4), op(1, 4, true, 5)};
  const BatchStats back = engine.apply_batch(restore);
  EXPECT_EQ(back.blocks_resolved, 1u);
  EXPECT_EQ(back.batch_downgrades, 0u);
  EXPECT_EQ(decompositions(), base);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());

  EXPECT_EQ(engine.stats().batches, 2u);
  EXPECT_EQ(engine.stats().batch_edges, 6u);
  EXPECT_EQ(engine.stats().blocks_resolved, 2u);
  EXPECT_EQ(engine.stats().structural_resolves, 0u);
}

TEST(ApplyBatch, MultiBlockBatchResolvesEachBlockOnce) {
  IncrementalBc engine(two_k6());
  const std::uint64_t base = decompositions();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(6, 7, false, 1)};
  const BatchStats stats = engine.apply_batch(batch);
  EXPECT_EQ(stats.blocks_resolved, 2u);
  EXPECT_EQ(stats.batch_downgrades, 0u);
  EXPECT_EQ(decompositions(), base);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());
}

TEST(ApplyBatch, StructuralBatchRedecomposesOnce) {
  IncrementalBc engine(two_k6());
  const std::uint64_t base = decompositions();
  // The cross-block insert downgrades the whole batch; the local chord
  // deletes ride along in the single re-decomposition.
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(6, 7, false, 1), op(0, 6, true, 2)};
  const BatchStats stats = engine.apply_batch(batch);
  EXPECT_EQ(stats.batch_downgrades, 1u);
  EXPECT_EQ(stats.blocks_resolved, 0u);
  EXPECT_EQ(decompositions(), base + 1)
      << "a downgraded batch re-decomposes exactly once, not per op";
  EXPECT_EQ(engine.stats().structural_resolves, 1u);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());
}

TEST(ApplyBatch, NetNoOpBatchLeavesEverythingUntouched) {
  IncrementalBc engine(two_k6());
  const std::vector<double> before = engine.scores();
  const std::uint64_t base = decompositions();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(0, 1, true, 1)};
  const BatchStats stats = engine.apply_batch(batch);
  EXPECT_EQ(stats.batch_edges, 2u);
  EXPECT_EQ(stats.coalesced_away, 2u);
  EXPECT_EQ(stats.blocks_resolved, 0u);
  EXPECT_EQ(stats.batch_downgrades, 0u);
  EXPECT_EQ(decompositions(), base);
  EXPECT_EQ(engine.scores(), before);
  EXPECT_EQ(engine.graph().num_arcs(), two_k6().num_arcs());
}

TEST(ApplyBatch, SameBatchRepairAppliesExactly) {
  IncrementalBc engine(cycle(4));
  const std::uint64_t base = decompositions();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(0, 2, true, 1), op(1, 3, true, 2)};
  const BatchStats stats = engine.apply_batch(batch);
  EXPECT_EQ(stats.batch_downgrades, 0u);
  EXPECT_EQ(stats.blocks_resolved, 1u);
  EXPECT_EQ(decompositions(), base);
  expect_scores_near(brandes_bc(engine.graph()), engine.scores());
}

TEST(ApplyBatch, RejectedBatchChangesNoState) {
  IncrementalBc engine(two_k6());
  const std::vector<double> before = engine.scores();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 0), op(0, 2, true, 1)};  // 0-2 already present
  EXPECT_THROW(engine.apply_batch(batch), Error);
  EXPECT_EQ(engine.scores(), before);
  EXPECT_EQ(engine.graph().num_arcs(), two_k6().num_arcs());
  EXPECT_EQ(engine.stats().batches, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot ownership: MutableGraph edits its snapshot in place while no one
// else holds it, and copies it first while a snapshot() handle is alive.

TEST(MutableGraphSnapshot, UnsharedSnapshotIsEditedInPlace) {
  MutableGraph graph(two_k6());
  const CsrGraph* const address = &graph.graph();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false), op(2, 3, false)};
  const IngestResult deleted = graph.ingest(batch);
  ASSERT_TRUE(deleted.ok());
  ASSERT_TRUE(deleted.applied());
  EXPECT_FALSE(deleted.structural());
  EXPECT_EQ(&graph.graph(), address);
  EXPECT_EQ(graph.graph(), apply_edge_ops(two_k6(), deleted.survivors));
  // A structural batch edits in place too.
  batch.ops = {op(0, 6, true)};
  const IngestResult bridged = graph.ingest(batch);
  ASSERT_TRUE(bridged.structural());
  EXPECT_EQ(&graph.graph(), address);
  EXPECT_TRUE(has_arc(graph.graph(), 6, 0));
}

TEST(MutableGraphSnapshot, SharedSnapshotIsNeverMutated) {
  MutableGraph graph(two_k6());
  std::shared_ptr<const CsrGraph> held = graph.snapshot();
  const CsrGraph before = *held;
  const Vertex* const held_arcs = held->out_neighbors(0).data();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false), op(6, 7, false)};
  const IngestResult r = graph.ingest(batch);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.structural());
  // The holder still sees the old arcs, where they were.
  EXPECT_NE(&graph.graph(), held.get());
  EXPECT_EQ(*held, before);
  EXPECT_EQ(held->out_neighbors(0).data(), held_arcs);
  EXPECT_TRUE(has_arc(*held, 0, 1));
  EXPECT_EQ(graph.graph(), apply_edge_ops(before, r.survivors));
  EXPECT_EQ(graph.snapshot()->num_arcs(), before.num_arcs() - 4);
  // Once the holder lets go, the next batch edits in place again.
  held.reset();
  const CsrGraph* const address = &graph.graph();
  batch.ops = {op(0, 1, true)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  EXPECT_EQ(&graph.graph(), address);
  EXPECT_TRUE(has_arc(graph.graph(), 1, 0));
}

// Deferred edits: a local batch only records its survivors as pending, and
// the CSR arrays catch up in one fold when the full graph is read or a
// structural batch lands.

std::uint64_t folds() { return metrics().counter("graph.folds").value(); }

TEST(MutableGraphSnapshot, LocalBatchLeavesTheArraysUntilARead) {
  MutableGraph graph(two_k6());
  const Vertex* const arcs = graph.unfolded().out_neighbors(0).data();
  const std::uint64_t base = folds();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false), op(7, 8, false)};
  const IngestResult r = graph.ingest(batch);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.structural());
  EXPECT_EQ(graph.unfolded(), two_k6());
  EXPECT_EQ(graph.unfolded().out_neighbors(0).data(), arcs);
  EXPECT_EQ(graph.pending().size(), 2u);
  EXPECT_EQ(folds(), base);
  // graph() folds, in place: no handle is alive.
  EXPECT_EQ(graph.graph(), apply_edge_ops(two_k6(), r.survivors));
  EXPECT_EQ(&graph.graph(), &graph.unfolded());
  EXPECT_TRUE(graph.pending().empty());
  EXPECT_EQ(folds(), base + 1);
  // snapshot() folds too; a read with nothing pending does not.
  batch.ops = {op(0, 1, true)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  EXPECT_FALSE(has_arc(graph.unfolded(), 0, 1));
  EXPECT_TRUE(has_arc(*graph.snapshot(), 0, 1));
  EXPECT_EQ(folds(), base + 2);
  EXPECT_EQ(*graph.snapshot(), apply_edge_ops(two_k6(), {op(7, 8, false)}));
  EXPECT_EQ(folds(), base + 2);
}

TEST(MutableGraphSnapshot, PendingDeleteCanBeReinsertedNotDeletedAgain) {
  MutableGraph graph(two_k6());
  UpdateRequest batch;
  batch.ops = {op(0, 1, false)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  // The arrays still hold 0-1, but the graph does not.
  ASSERT_TRUE(has_arc(graph.unfolded(), 0, 1));
  batch.ops = {op(1, 0, false)};
  const IngestResult again = graph.ingest(batch);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status.message, "arc not present");
  EXPECT_EQ(graph.pending().size(), 1u);
  batch.ops = {op(1, 0, true)};
  const IngestResult back = graph.ingest(batch);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.applied());
  EXPECT_FALSE(back.structural());
  EXPECT_TRUE(graph.pending().empty());
  EXPECT_EQ(graph.graph(), two_k6());
}

TEST(MutableGraphSnapshot, ToggleBackBatchLeavesNothingPending) {
  MutableGraph graph(two_k6());
  const std::uint64_t base = folds();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false), op(2, 3, false), op(6, 7, false)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  EXPECT_EQ(graph.pending().size(), 3u);
  for (EdgeOp& o : batch.ops) o.insert = true;
  const IngestResult back = graph.ingest(batch);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.survivors.size(), 3u);
  EXPECT_FALSE(back.structural());
  EXPECT_TRUE(graph.pending().empty());
  EXPECT_EQ(graph.graph(), two_k6());
  EXPECT_EQ(folds(), base) << "nothing was pending to fold";
}

TEST(MutableGraphSnapshot, StructuralBatchFoldsEveryPendingEdit) {
  MutableGraph graph(two_k6());
  const CsrGraph* const address = &graph.unfolded();
  const std::uint64_t base = folds();
  UpdateRequest batch;
  batch.ops = {op(0, 1, false), op(6, 7, false), op(2, 3, false)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  // Restores 0-1, deletes 8-9 and bridges the blocks with 0-6: structural.
  batch.ops = {op(0, 1, true), op(8, 9, false), op(0, 6, true)};
  const IngestResult r = graph.ingest(batch);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.structural());
  EXPECT_TRUE(graph.pending().empty());
  EXPECT_EQ(folds(), base + 1);
  EXPECT_EQ(&graph.unfolded(), address);
  const std::vector<EdgeOp> net = {op(6, 7, false), op(2, 3, false),
                                   op(8, 9, false), op(0, 6, true)};
  EXPECT_EQ(graph.unfolded(), apply_edge_ops(two_k6(), net));
  EXPECT_EQ(graph.graph(), apply_edge_ops(two_k6(), net));
  EXPECT_EQ(folds(), base + 1);
}

TEST(MutableGraphSnapshot, HandleTakenWhileEditsArePendingIsNeverMutated) {
  MutableGraph graph(two_k6());
  UpdateRequest batch;
  batch.ops = {op(0, 1, false)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  const std::shared_ptr<const CsrGraph> held = graph.snapshot();
  const CsrGraph first = apply_edge_ops(two_k6(), {op(0, 1, false)});
  EXPECT_EQ(*held, first);
  const Vertex* const held_arcs = held->out_neighbors(2).data();
  // A local and then a structural batch while the handle is alive: both
  // folds copy, and the holder keeps what it was given.
  batch.ops = {op(2, 3, false)};
  ASSERT_TRUE(graph.ingest(batch).ok());
  EXPECT_EQ(graph.graph(), apply_edge_ops(first, {op(2, 3, false)}));
  EXPECT_NE(&graph.graph(), held.get());
  batch.ops = {op(4, 7, true)};
  ASSERT_TRUE(graph.ingest(batch).structural());
  EXPECT_EQ(*held, first);
  EXPECT_EQ(held->out_neighbors(2).data(), held_arcs);
  EXPECT_EQ(graph.graph(),
            apply_edge_ops(first, {op(2, 3, false), op(4, 7, true)}));
}

Request batch_request(const std::string& graph, std::vector<EdgeOp> ops) {
  Request request;
  request.kind = RequestKind::kUpdateBatch;
  request.graph = graph;
  request.update.ops = std::move(ops);
  return request;
}

Request solve_request(const std::string& graph) {
  Request request;
  request.kind = RequestKind::kSolve;
  request.graph = graph;
  request.options.algorithm = Algorithm::kBrandesSerial;
  return request;
}

ServiceOptions unit_options() {
  ServiceOptions options;
  options.workers = 1;
  options.session_capacity = 2;
  return options;
}

/// Randomized batch trajectories: both owners of an evolving graph run the
/// one ingest step, so every batch is applied to a batched engine AND
/// submitted as a kUpdateBatch to a Service holding the same graph; their
/// per-batch counters must agree exactly. The ops are also replayed one at
/// a time through a second engine as one-op batches. After every batch all
/// three must match each other and a fresh static Brandes solve.
void random_batch_trajectory(std::uint64_t seed) {
  const CsrGraph start = caveman(3, 5, seed);
  IncrementalBc batched(start);
  IncrementalBc per_edge(start);
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", start).ok());
  // A warm APGRE session, so local batches patch its contribution store in
  // place rather than re-solving cold.
  Request solve = solve_request("g");
  ASSERT_TRUE(service.handle(solve).status.ok());

  std::set<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < start.num_vertices(); ++u) {
    for (Vertex v : start.out_neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  SplitMix64 rng(seed);
  const Vertex n = start.num_vertices();
  for (int b = 0; b < 12; ++b) {
    UpdateRequest batch;
    std::set<std::pair<Vertex, Vertex>> touched;
    const std::size_t want = 2 + rng.next() % 4;
    for (int guard = 0; batch.ops.size() < want && guard < 200; ++guard) {
      const Vertex u = static_cast<Vertex>(rng.next() % n);
      const Vertex v = static_cast<Vertex>(rng.next() % n);
      if (u == v) continue;
      const std::pair<Vertex, Vertex> key{std::min(u, v), std::max(u, v)};
      if (!touched.insert(key).second) continue;  // one op per edge per batch
      const bool present = edges.count(key) != 0;
      batch.ops.push_back(op(key.first, key.second, !present,
                             batch.ops.size()));
      if (present) {
        edges.erase(key);
      } else {
        edges.insert(key);
      }
    }
    ASSERT_FALSE(batch.ops.empty());
    SCOPED_TRACE("batch " + std::to_string(b));
    const BatchStats engine_stats = batched.apply_batch(batch);
    const Response served = service.handle(batch_request("g", batch.ops));
    ASSERT_TRUE(served.status.ok()) << served.status.message;
    EXPECT_EQ(served.batch.coalesced_away, engine_stats.coalesced_away);
    EXPECT_EQ(served.batch.blocks_resolved, engine_stats.blocks_resolved);
    EXPECT_EQ(served.batch.batch_downgrades, engine_stats.batch_downgrades);
    for (const EdgeOp& o : batch.ops) per_edge.apply_batch(UpdateRequest{{o}});

    const std::vector<double> oracle = brandes_bc(batched.graph());
    expect_scores_near(oracle, batched.scores());
    expect_scores_near(oracle, per_edge.scores());
    const Response solved = service.handle(solve);
    ASSERT_TRUE(solved.status.ok()) << solved.status.message;
    expect_scores_near(batched.scores(), solved.scores);
  }
}

TEST(ApplyBatch, RandomTrajectorySeed7) { random_batch_trajectory(7); }
TEST(ApplyBatch, RandomTrajectorySeed17) { random_batch_trajectory(17); }
TEST(ApplyBatch, RandomTrajectorySeed27) { random_batch_trajectory(27); }

// ---------------------------------------------------------------------------
// A long all-local stream, the shape the ledger's caveman_stream times, at a
// size the sanitizer builds run: 8 cliques of 28, one sub-graph per block.
// Each clique gives a pool of `batch size` vertex-disjoint chords with no
// articulation-point endpoint, so deleting a whole pool leaves its block
// biconnected. The 64 batches alternate deleting one clique's pool and
// re-inserting it, round-robin over the cliques. No batch may downgrade,
// nothing may re-decompose or fold, and the scores must equal a cold APGRE
// solve bit for bit after every batch (and Brandes within tolerance at the
// end). Batch size 1 is the one-op local trajectory.

class StreamTrajectory : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamTrajectory, LocalBatchesStayExactWithoutRedecomposing) {
  const std::size_t batch_size = GetParam();
  constexpr Vertex kCliques = 8;
  constexpr int kBatches = 64;
  const CsrGraph start = caveman(kCliques, 28, 1);

  const BlockCutQueries queries(start);
  const std::vector<bool>& is_ap = queries.bcc().is_articulation;
  std::map<Vertex, std::vector<Edge>> pool_of_block;
  std::vector<bool> used(start.num_vertices(), false);
  for (Vertex u = 0; u < start.num_vertices(); ++u) {
    for (Vertex v : start.out_neighbors(u)) {
      if (u >= v || used[u] || used[v] || is_ap[u] || is_ap[v]) continue;
      std::vector<Edge>& pool = pool_of_block[queries.common_block(u, v)];
      if (pool.size() == batch_size) continue;
      pool.push_back(Edge{u, v});
      used[u] = used[v] = true;
    }
  }
  std::vector<std::vector<Edge>> pools;
  for (auto& [block, pool] : pool_of_block) {
    if (pool.size() == batch_size) pools.push_back(std::move(pool));
  }
  ASSERT_EQ(pools.size(), kCliques) << "every clique yields a full pool";

  const auto batch_at = [&pools](int b, bool insert) {
    const std::vector<Edge>& pool = pools[static_cast<std::size_t>(b / 2) %
                                          pools.size()];
    UpdateRequest batch;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      batch.ops.push_back(op(pool[i].src, pool[i].dst, insert,
                             static_cast<std::uint64_t>(b) * 100 + i));
    }
    return batch;
  };

  IncrementalBc engine(start);
  // The oracle scores a copy edited beside the engine: reading
  // engine.graph() would fold the engine's pending edits. Its cold solves
  // decompose, so `base` moves past each one.
  CsrGraph mirror = start;
  std::uint64_t base = decompositions();
  const std::uint64_t base_folds = folds();
  for (int b = 0; b < kBatches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const UpdateRequest batch = batch_at(b, b % 2 != 0);
    const BatchStats stats = engine.apply_batch(batch);
    apply_edge_ops_in_place(mirror, batch.ops);
    EXPECT_EQ(stats.batch_downgrades, 0u);
    EXPECT_EQ(stats.blocks_resolved, 1u);
    EXPECT_EQ(decompositions(), base) << "a local batch must not re-decompose";
    EXPECT_EQ(folds(), base_folds) << "a local batch must not edit the CSR";
    ASSERT_EQ(testing::cold_apgre_scores(mirror), engine.scores());
    base = decompositions();
  }
  expect_scores_near(brandes_bc(mirror), engine.scores());
  EXPECT_EQ(engine.stats().batches, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(engine.stats().batch_edges, kBatches * batch_size);
  EXPECT_EQ(engine.stats().batch_downgrades, 0u);
  EXPECT_EQ(engine.stats().structural_resolves, 0u);
  // Every pool was re-inserted, so nothing is pending and a read folds
  // nothing.
  EXPECT_EQ(engine.graph(), start);
  EXPECT_EQ(folds(), base_folds);
  // One more delete batch stays pending until the graph is read, which
  // folds it once.
  engine.apply_batch(batch_at(0, /*insert=*/false));
  apply_edge_ops_in_place(mirror, batch_at(0, false).ops);
  EXPECT_EQ(folds(), base_folds);
  EXPECT_EQ(engine.graph(), mirror);
  EXPECT_EQ(folds(), base_folds + 1);
  EXPECT_EQ(engine.graph().num_arcs(), start.num_arcs() - 2 * batch_size);
  EXPECT_EQ(folds(), base_folds + 1);
  EXPECT_EQ(decompositions(), base);
  EXPECT_EQ(testing::cold_apgre_scores(engine.graph()), engine.scores());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, StreamTrajectory,
                         ::testing::Values(std::size_t{8}, std::size_t{1}),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "ops" + std::to_string(p.param);
                         });

// ---------------------------------------------------------------------------
// Binary edge-batch frames.

TEST(EdgeBatchIo, FrameRoundTripsThroughStream) {
  UpdateRequest batch;
  batch.ops = {op(0, 1, false, 42), op(2, 3, true, 43)};
  batch.ops[1].weight = 1.0;
  std::stringstream buf;
  write_edge_batch(buf, batch);
  const UpdateRequest back = read_edge_batch(buf);
  ASSERT_EQ(back.ops.size(), 2u);
  EXPECT_EQ(back.ops[0].u, 0u);
  EXPECT_EQ(back.ops[0].v, 1u);
  EXPECT_FALSE(back.ops[0].insert);
  EXPECT_EQ(back.ops[0].timestamp, 42u);
  EXPECT_TRUE(back.ops[1].insert);
  EXPECT_EQ(back.ops[1].weight, 1.0);
}

TEST(EdgeBatchIo, FileRoundTripsManyFrames) {
  std::vector<UpdateRequest> batches(3);
  batches[0].ops = {op(0, 1, true, 0)};
  batches[1].ops = {op(1, 2, false, 1), op(2, 3, true, 2)};
  // batches[2] stays empty: an empty frame is legal.
  const std::string path = ::testing::TempDir() + "/ingest_frames.apgb";
  write_edge_batch_file(path, batches);
  const std::vector<UpdateRequest> back = read_edge_batch_file(path);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].ops.size(), 1u);
  EXPECT_EQ(back[1].ops.size(), 2u);
  EXPECT_TRUE(back[2].ops.empty());
  EXPECT_EQ(back[1].ops[0].v, 2u);
  std::remove(path.c_str());
}

TEST(EdgeBatchIo, TruncatedFrameThrows) {
  UpdateRequest batch;
  batch.ops = {op(0, 1, true, 0)};
  std::stringstream buf;
  write_edge_batch(buf, batch);
  const std::string bytes = buf.str();
  std::stringstream cut(bytes.substr(0, bytes.size() - 4));
  EXPECT_THROW(read_edge_batch(cut), Error);
}

TEST(EdgeBatchIo, BadMagicThrows) {
  std::stringstream buf("XXXXnot a frame at all, nope");
  EXPECT_THROW(read_edge_batch(buf), Error);
}

// ---------------------------------------------------------------------------
// Service-level batching.

TEST(ServiceBatch, LocalBatchCountersAndExactness) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", two_k6()).ok());

  const Response r = service.handle(
      batch_request("g", {op(0, 1, false, 0), op(6, 7, false, 1)}));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.locality, UpdateLocality::kLocalDelete);
  EXPECT_EQ(r.affected_sources, 12u) << "both K6 blocks are affected";
  EXPECT_EQ(r.batch.batch_edges, 2u);
  EXPECT_EQ(r.batch.coalesced_away, 0u);
  EXPECT_EQ(r.batch.blocks_resolved, 2u);
  EXPECT_EQ(r.batch.batch_downgrades, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batch_updates, 1u);
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.batch_edges, 2u);
  EXPECT_EQ(stats.blocks_resolved, 2u);
  EXPECT_EQ(stats.batch_downgrades, 0u);
  EXPECT_EQ(stats.updates_local, 2u) << "one per surviving op";

  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok());
  expect_scores_near(brandes_bc(*service.snapshot("g")), solved.scores);
}

TEST(ServiceBatch, AllInsertBatchGradesLocalInsert) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", cycle(5)).ok());
  const Response r = service.handle(
      batch_request("g", {op(0, 2, true, 0), op(1, 3, true, 1)}));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.locality, UpdateLocality::kLocalInsert);
  EXPECT_EQ(r.batch.blocks_resolved, 1u);
}

TEST(ServiceBatch, StructuralBatchDowngradesOnce) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", two_k6()).ok());
  const Response r = service.handle(
      batch_request("g", {op(0, 1, false, 0), op(0, 6, true, 1)}));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.locality, UpdateLocality::kStructural);
  EXPECT_EQ(r.batch.batch_downgrades, 1u);
  EXPECT_EQ(r.batch.blocks_resolved, 0u);
  EXPECT_EQ(service.stats().batch_downgrades, 1u);
  EXPECT_EQ(service.stats().updates_structural, 2u);
  const Response solved = service.handle(solve_request("g"));
  ASSERT_TRUE(solved.status.ok());
  expect_scores_near(brandes_bc(*service.snapshot("g")), solved.scores);
}

TEST(ServiceBatch, EmptyAndFullyCoalescedBatchesAreLegalNoOps) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", cycle(5)).ok());
  const auto before = service.snapshot("g");

  const Response empty = service.handle(batch_request("g", {}));
  ASSERT_TRUE(empty.status.ok()) << empty.status.message;
  EXPECT_EQ(empty.batch.batch_edges, 0u);

  const Response cancelled = service.handle(
      batch_request("g", {op(0, 2, true, 0), op(0, 2, false, 1)}));
  ASSERT_TRUE(cancelled.status.ok()) << cancelled.status.message;
  EXPECT_EQ(cancelled.batch.coalesced_away, 2u);
  EXPECT_EQ(cancelled.batch.blocks_resolved, 0u);
  EXPECT_EQ(service.snapshot("g"), before)
      << "a no-op batch must not swap the snapshot";
}

TEST(ServiceBatch, RejectedBatchKeepsStateAndCountsError) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", cycle(5)).ok());
  const std::vector<double> before =
      service.handle(solve_request("g")).scores;

  const Response r = service.handle(
      batch_request("g", {op(0, 2, true, 0), op(0, 1, true, 1)}));
  EXPECT_FALSE(r.status.ok());
  EXPECT_NE(r.status.message.find("arc already present"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1u);

  const Response after = service.handle(solve_request("g"));
  ASSERT_TRUE(after.status.ok());
  expect_scores_near(before, after.scores);
}

TEST(ServiceBatch, LegacyUpdateIsABatchOfOne) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", cycle(5)).ok());
  // The single-edit kind carries a one-op payload.
  Request legacy;
  legacy.kind = RequestKind::kUpdate;
  legacy.graph = "g";
  legacy.update.ops = {op(0, 2, true)};
  const Response r = service.handle(legacy);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.locality, UpdateLocality::kLocalInsert);
  EXPECT_EQ(r.batch.batch_edges, 1u);
  EXPECT_EQ(service.stats().updates, 1u);
  EXPECT_EQ(service.stats().batch_updates, 0u)
      << "kUpdate keeps counting under `updates`";
}

TEST(ServiceBatch, UpdateRejectsMultiOpPayload) {
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", cycle(5)).ok());
  Request request;
  request.kind = RequestKind::kUpdate;
  request.graph = "g";
  request.update.ops = {op(0, 2, true, 0), op(1, 3, true, 1)};
  const Response r = service.handle(request);
  EXPECT_FALSE(r.status.ok());
  EXPECT_NE(r.status.message.find("update_batch"), std::string::npos);
}

TEST(ServiceBatch, RegisterRejectsEmptyName) {
  Service service(unit_options());
  const Status status = service.register_graph("", cycle(4));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("non-empty"), std::string::npos);
  EXPECT_TRUE(service.graph_names().empty());
}

TEST(ServiceBatch, ForestIncidentBatchResetsPeelOnce) {
  // K4 core with a pendant chain 3-4-5 and pendant 2-6: the chain edges
  // are bridge blocks, so a batch deleting both is structural and must
  // drop the warm session's decomposition and peel exactly once — the
  // next solve re-runs the peel once, not once per op.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
          {3, 4}, {4, 5}, {2, 6}});
  Service service(unit_options());
  ASSERT_TRUE(service.register_graph("g", g).ok());

  Request peeled = solve_request("g");
  peeled.options.algorithm = Algorithm::kApgre;  // peels by default

  ASSERT_TRUE(service.handle(peeled).status.ok());
  const std::uint64_t base = peel_runs();
  ASSERT_TRUE(service.handle(peeled).status.ok());
  EXPECT_EQ(peel_runs(), base) << "a warm session must keep its peel";

  const Response batch = service.handle(
      batch_request("g", {op(4, 5, false, 0), op(2, 6, false, 1)}));
  ASSERT_TRUE(batch.status.ok()) << batch.status.message;
  EXPECT_EQ(batch.locality, UpdateLocality::kStructural);

  const Response after = service.handle(peeled);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(peel_runs(), base + 1)
      << "one structural batch = one session rebind = one re-peel at next "
         "solve";
  expect_scores_near(brandes_bc(*service.snapshot("g")), after.scores);
}

// Adversarial concurrency: one writer streaming batches while readers
// solve. Run under TSan in CI (docs/TESTING.md); here it also checks the
// final scores are exact whatever interleaving happened.
TEST(ServiceBatch, ConcurrentBatchesAndSolves) {
  ServiceOptions options;
  options.workers = 4;
  options.session_capacity = 2;
  Service service(options);
  ASSERT_TRUE(service.register_graph("g", two_k6()).ok());

  std::thread writer([&service] {
    for (int i = 0; i < 16; ++i) {
      const bool deleting = i % 2 == 0;
      service
          .submit(batch_request(
              "g", {op(0, 1, !deleting, 0), op(6, 7, !deleting, 1)}))
          .get();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&service] {
      for (int i = 0; i < 8; ++i) {
        const Response r = service.submit(solve_request("g")).get();
        ASSERT_TRUE(r.status.ok()) << r.status.message;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  const Response final_solve = service.handle(solve_request("g"));
  ASSERT_TRUE(final_solve.status.ok());
  expect_scores_near(brandes_bc(*service.snapshot("g")), final_solve.scores);
  EXPECT_EQ(service.stats().batch_updates, 16u);
  EXPECT_EQ(service.stats().batch_downgrades, 0u);
}

}  // namespace
}  // namespace apgre
