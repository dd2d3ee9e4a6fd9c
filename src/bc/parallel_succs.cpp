#include "bc/parallel_succs.hpp"

#include <atomic>
#include <cstdint>

#include "bc/frontier.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

}  // namespace

std::vector<double> parallel_succs_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched) {
  const Vertex n = g.num_vertices();
  const int workers = sched.num_workers();
  std::vector<double> bc(n, 0.0);

  std::vector<std::atomic<std::int32_t>> dist(n);
  std::vector<std::atomic<double>> sigma(n);
  std::vector<double> delta(n, 0.0);
  for (Vertex v = 0; v < n; ++v) {
    dist[v].store(kUnvisited, std::memory_order_relaxed);
    sigma[v].store(0.0, std::memory_order_relaxed);
  }
  LevelBuckets levels;
  SlotLocalFrontier next(sched.num_slots());

  std::uint64_t traversed_arcs = 0;
  std::atomic<std::uint64_t> cas_retries{0};
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  Timer phase_timer;

  for (Vertex s = 0; s < n; ++s) {
    dist[s].store(0, std::memory_order_relaxed);
    sigma[s].store(1.0, std::memory_order_relaxed);
    levels.push(s);
    levels.finish_level();

    // Forward: identical claim-and-count expansion to `preds`, but no
    // predecessor recording.
    phase_timer.reset();
    for (std::size_t current = 0; !levels.level(current).empty(); ++current) {
      const auto level = levels.level(current);
      const auto depth = static_cast<std::int32_t>(current);
      sched.parallel_for(
          0, static_cast<std::int64_t>(level.size()),
          level_grain(level.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int slot) {
            auto& local = next.local(slot);
            std::uint64_t lost_claims = 0;
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = level[static_cast<std::size_t>(i)];
              for (Vertex w : g.out_neighbors(v)) {
                std::int32_t expected = kUnvisited;
                if (dist[w].compare_exchange_strong(expected, depth + 1,
                                                    std::memory_order_relaxed)) {
                  local.push_back(w);
                  expected = depth + 1;
                } else if (expected == depth + 1) {
                  ++lost_claims;
                }
                if (expected == depth + 1) {
                  sigma[w].fetch_add(sigma[v].load(std::memory_order_relaxed),
                                     std::memory_order_relaxed);
                }
              }
            }
            if (lost_claims != 0) {
              cas_retries.fetch_add(lost_claims, std::memory_order_relaxed);
            }
          });
      next.drain_into(levels);
      levels.finish_level();
      if (levels.level(current + 1).empty()) break;
    }
    forward_seconds += phase_timer.seconds();

    // Backward: each vertex pulls from its successors; delta[v] has a
    // single writer, no synchronisation needed.
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
              const double sv = sigma[v].load(std::memory_order_relaxed);
              double acc = 0.0;
              for (Vertex w : g.out_neighbors(v)) {
                if (dist[w].load(std::memory_order_relaxed) == dv + 1) {
                  acc += sv / sigma[w].load(std::memory_order_relaxed) *
                         (1.0 + delta[w]);
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
      sigma[v].store(0.0, std::memory_order_relaxed);
      delta[v] = 0.0;
    }
    levels.clear();
  }

  MetricsRegistry& m = metrics();
  m.counter("bc.succs.sources").add(n);
  m.counter("bc.succs.traversed_arcs").add(traversed_arcs);
  m.counter("bc.succs.cas_retries").add(cas_retries.load(std::memory_order_relaxed));
  m.gauge("bc.succs.forward_seconds").set(forward_seconds);
  m.gauge("bc.succs.backward_seconds").set(backward_seconds);
  return bc;
}

}  // namespace apgre
