#include "bc/hybrid.hpp"

#include <atomic>
#include <cstdint>

#include "bc/frontier.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

/// One slot's share of a level: vertices it discovered, candidates it
/// left unvisited, and the discovered vertices' out-edge volume (the
/// Beamer switch input).
struct alignas(64) LocalLists {
  std::vector<Vertex> discovered;
  std::vector<Vertex> remaining;
  std::uint64_t out_edges = 0;
};

}  // namespace

std::vector<double> hybrid_bc(const CsrGraph& g, WorkStealingScheduler& sched,
                              const HybridOptions& opts) {
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
  std::vector<LocalLists> locals(static_cast<std::size_t>(sched.num_slots()));
  std::vector<Vertex> candidates;  // unvisited vertices (bottom-up scan list)
  bool candidates_valid = false;

  const auto total_arcs = static_cast<double>(g.num_arcs());

  std::uint64_t traversed_arcs = 0;
  std::uint64_t bottom_up_levels = 0;
  std::atomic<std::uint64_t> cas_retries{0};
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  Timer phase_timer;

  for (Vertex s = 0; s < n; ++s) {
    dist[s].store(0, std::memory_order_relaxed);
    sigma[s].store(1.0, std::memory_order_relaxed);
    levels.push(s);
    levels.finish_level();
    candidates_valid = false;
    std::uint64_t frontier_out_edges = g.out_degree(s);
    double explored_arcs = 0.0;

    phase_timer.reset();
    for (std::int32_t depth = 0;
         !levels.level(static_cast<std::size_t>(depth)).empty(); ++depth) {
      const auto frontier = levels.level(static_cast<std::size_t>(depth));
      explored_arcs += static_cast<double>(frontier_out_edges);
      const bool bottom_up =
          static_cast<double>(frontier_out_edges) >
              (total_arcs - explored_arcs) / opts.alpha &&
          static_cast<double>(frontier.size()) > static_cast<double>(n) / opts.beta;

      if (bottom_up) {
        ++bottom_up_levels;
        if (!candidates_valid) {
          // First bottom-up level of this source: materialise the
          // unvisited list.
          candidates.clear();
          for (Vertex v = 0; v < n; ++v) {
            if (dist[v].load(std::memory_order_relaxed) == kUnvisited) {
              candidates.push_back(v);
            }
          }
          candidates_valid = true;
        }
        sched.parallel_for(
            0, static_cast<std::int64_t>(candidates.size()),
            level_grain(candidates.size(), workers),
            [&](std::int64_t lo, std::int64_t hi, int slot) {
              LocalLists& local = locals[static_cast<std::size_t>(slot)];
              for (std::int64_t i = lo; i < hi; ++i) {
                const Vertex v = candidates[static_cast<std::size_t>(i)];
                double paths = 0.0;
                for (Vertex u : g.in_neighbors(v)) {
                  if (dist[u].load(std::memory_order_relaxed) == depth) {
                    paths += sigma[u].load(std::memory_order_relaxed);
                  }
                }
                if (paths > 0.0) {
                  dist[v].store(depth + 1, std::memory_order_relaxed);
                  sigma[v].store(paths, std::memory_order_relaxed);
                  local.discovered.push_back(v);
                  local.out_edges += g.out_degree(v);
                } else {
                  local.remaining.push_back(v);
                }
              }
            });
        candidates.clear();
      } else {
        // Top-down push with CAS claims and atomic sigma, as in `preds`.
        sched.parallel_for(
            0, static_cast<std::int64_t>(frontier.size()),
            level_grain(frontier.size(), workers),
            [&](std::int64_t lo, std::int64_t hi, int slot) {
              LocalLists& local = locals[static_cast<std::size_t>(slot)];
              std::uint64_t lost_claims = 0;
              for (std::int64_t i = lo; i < hi; ++i) {
                const Vertex v = frontier[static_cast<std::size_t>(i)];
                for (Vertex w : g.out_neighbors(v)) {
                  std::int32_t expected = kUnvisited;
                  if (dist[w].compare_exchange_strong(
                          expected, depth + 1, std::memory_order_relaxed)) {
                    local.discovered.push_back(w);
                    local.out_edges += g.out_degree(w);
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
        candidates_valid = false;  // the unvisited list is now stale
      }
      // Merge the slots' lists once the level's loop has returned.
      frontier_out_edges = 0;
      for (LocalLists& local : locals) {
        levels.push_batch(local.discovered);
        candidates.insert(candidates.end(), local.remaining.begin(),
                          local.remaining.end());
        frontier_out_edges += local.out_edges;
        local.discovered.clear();
        local.remaining.clear();
        local.out_edges = 0;
      }
      levels.finish_level();
      if (levels.level(static_cast<std::size_t>(depth) + 1).empty()) break;
    }
    forward_seconds += phase_timer.seconds();

    // Backward successor pull.
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
  m.counter("bc.hybrid.sources").add(n);
  m.counter("bc.hybrid.traversed_arcs").add(traversed_arcs);
  m.counter("bc.hybrid.bottom_up_levels").add(bottom_up_levels);
  m.counter("bc.hybrid.cas_retries").add(cas_retries.load(std::memory_order_relaxed));
  m.gauge("bc.hybrid.forward_seconds").set(forward_seconds);
  m.gauge("bc.hybrid.backward_seconds").set(backward_seconds);
  return bc;
}

}  // namespace apgre
