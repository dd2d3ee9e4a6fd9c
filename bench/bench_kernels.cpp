// google-benchmark micro-benchmarks for the building-block kernels:
// biconnected decomposition, partitioning, alpha/beta counting and the
// per-source Brandes iteration and its forward sweep. Useful for
// regression-tracking the substrate independent of end-to-end BC runs.
#include <benchmark/benchmark.h>

#include "bc/brandes.hpp"
#include "bc/brandes_kernel.hpp"
#include "bcc/articulation.hpp"
#include "bcc/bicomp.hpp"
#include "bcc/partition.hpp"
#include "bcc/reach.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"

namespace {

using namespace apgre;

CsrGraph social_graph(std::int64_t n) {
  return attach_pendants(barabasi_albert(static_cast<Vertex>(n), 4, 31),
                         static_cast<Vertex>(n / 2), 32);
}

void BM_ArticulationPoints(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(articulation_points(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_ArticulationPoints)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_BiconnectedComponents(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(biconnected_components(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_BiconnectedComponents)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_Decompose(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g));
  }
}
BENCHMARK(BM_Decompose)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_ReachBfs(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  PartitionOptions opts;
  opts.compute_reach = false;
  Decomposition dec = decompose(g, opts);
  for (auto _ : state) {
    compute_reach_counts(g, dec, ReachMethod::kBfs);
  }
}
BENCHMARK(BM_ReachBfs)->Arg(1 << 10)->Arg(1 << 12);

void BM_ReachTreeDp(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  PartitionOptions opts;
  opts.compute_reach = false;
  Decomposition dec = decompose(g, opts);
  for (auto _ : state) {
    compute_reach_counts(g, dec, ReachMethod::kTreeDp);
  }
}
BENCHMARK(BM_ReachTreeDp)->Arg(1 << 10)->Arg(1 << 12);

void BM_BrandesSingleSource(benchmark::State& state) {
  const CsrGraph g = social_graph(state.range(0));
  Vertex s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(brandes_bc_from_sources(g, {s}, 1.0));
    s = (s + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_BrandesSingleSource)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

// The forward sweep alone, one root per iteration in turn, over one reused
// scratch (BM_BrandesSingleSource allocates one per call). Items are the
// graph's arcs, so items/s reads as arcs per second of a full sweep; the
// 24-clique stops after the root's 23 arcs, which is what its figure
// shows. The scratch reset is inside the timed loop.
void BM_ForwardSweep(benchmark::State& state) {
  CsrGraph g;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("barabasi-albert core");
      g = barabasi_albert(4096, 8, 31);
      break;
    case 1:
      state.SetLabel("road grid");
      g = largest_component(road_grid(81, 81, 0.30, 0.06, 5)).graph;
      break;
    default:
      state.SetLabel("24-clique");
      g = complete(24);
      break;
  }
  detail::BrandesScratch scratch;
  scratch.ensure(g.num_vertices(), g.num_arcs());
  Vertex s = 0;
  for (auto _ : state) {
    detail::forward_sweep(g, s, scratch.dist.data(), scratch.sigma.data(),
                          scratch.dag);
    benchmark::DoNotOptimize(scratch.sigma.data());
    benchmark::ClobberMemory();
    scratch.reset_touched(g);
    s = (s + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_ForwardSweep)->DenseRange(0, 2);

}  // namespace

BENCHMARK_MAIN();
