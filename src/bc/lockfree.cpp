#include "bc/lockfree.hpp"

#include <atomic>
#include <cstdint>
#include <numeric>

#include "bc/frontier.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

}  // namespace

std::vector<double> lockfree_bc(const CsrGraph& g, WorkStealingScheduler& sched) {
  const Vertex n = g.num_vertices();
  const int workers = sched.num_workers();
  std::vector<double> bc(n, 0.0);

  // dist needs relaxed atomics: a pull scan reads dist of in-neighbours
  // that other slots may be discovering (writing depth+1) in the same
  // level. The read can only observe kUnvisited or depth+1 there — never
  // the depth it compares against — so any outcome is correct, but the
  // access itself must not be a plain-int race.
  std::vector<std::atomic<std::int32_t>> dist(n);
  for (Vertex v = 0; v < n; ++v) {
    dist[v].store(kUnvisited, std::memory_order_relaxed);
  }
  std::vector<double> sigma(n, 0.0);
  std::vector<double> delta(n, 0.0);
  LevelBuckets levels;
  // Per-slot split of the candidate list: vertices discovered this level
  // and vertices still unvisited, merged serially after the level's loop.
  SlotLocalFrontier discovered(sched.num_slots());
  SlotLocalFrontier remaining(sched.num_slots());
  // Vertices not yet visited this source; shrinks after every level so the
  // pull scan narrows as the BFS progresses.
  std::vector<Vertex> candidates;

  std::uint64_t traversed_arcs = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  Timer phase_timer;

  for (Vertex s = 0; s < n; ++s) {
    dist[s].store(0, std::memory_order_relaxed);
    sigma[s] = 1.0;
    levels.push(s);
    levels.finish_level();

    candidates.resize(n);
    std::iota(candidates.begin(), candidates.end(), 0);
    candidates.erase(candidates.begin() + s);

    phase_timer.reset();
    for (std::int32_t depth = 0;
         !levels.level(static_cast<std::size_t>(depth)).empty(); ++depth) {
      // Pull phase: every candidate checks whether a level-`depth`
      // in-neighbour reaches it; each dist/sigma cell has a single writer,
      // so no locks or heavier-than-relaxed atomics are required.
      sched.parallel_for(
          0, static_cast<std::int64_t>(candidates.size()),
          level_grain(candidates.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int slot) {
            auto& found = discovered.local(slot);
            auto& rest = remaining.local(slot);
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = candidates[static_cast<std::size_t>(i)];
              double paths = 0.0;
              for (Vertex u : g.in_neighbors(v)) {
                if (dist[u].load(std::memory_order_relaxed) == depth) {
                  paths += sigma[u];
                }
              }
              if (paths > 0.0) {
                dist[v].store(depth + 1, std::memory_order_relaxed);
                sigma[v] = paths;
                found.push_back(v);
              } else {
                rest.push_back(v);
              }
            }
          });
      candidates.clear();
      discovered.drain_into(levels);
      remaining.drain_into(candidates);
      levels.finish_level();
      if (levels.level(static_cast<std::size_t>(depth) + 1).empty()) break;
    }
    forward_seconds += phase_timer.seconds();

    // Backward successor pull (same maths as `succs`, also free of
    // synchronisation).
    phase_timer.reset();
    for (std::size_t lvl = levels.num_levels(); lvl-- > 0;) {
      const auto level = levels.level(lvl);
      sched.parallel_for(
          0, static_cast<std::int64_t>(level.size()),
          level_grain(level.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = level[static_cast<std::size_t>(i)];
              const auto dv = dist[v].load(std::memory_order_relaxed);
              double acc = 0.0;
              for (Vertex w : g.out_neighbors(v)) {
                if (dist[w].load(std::memory_order_relaxed) == dv + 1) {
                  acc += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
              }
              delta[v] = acc;
              if (v != s) bc[v] += acc;
            }
          });
    }
    backward_seconds += phase_timer.seconds();

    for (Vertex v : levels.touched()) {
      traversed_arcs += g.out_degree(v);
      dist[v].store(kUnvisited, std::memory_order_relaxed);
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
    levels.clear();
  }

  MetricsRegistry& m = metrics();
  m.counter("bc.lockfree.sources").add(n);
  m.counter("bc.lockfree.traversed_arcs").add(traversed_arcs);
  m.gauge("bc.lockfree.forward_seconds").set(forward_seconds);
  m.gauge("bc.lockfree.backward_seconds").set(backward_seconds);
  return bc;
}

}  // namespace apgre
