#include "bc/parallel_preds.hpp"

#include <atomic>
#include <cstdint>

#include "bc/frontier.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

/// Shared per-source state. Predecessor lists live in slots parallel to the
/// in-adjacency array: the predecessors of w are a prefix-compacted subset
/// of its in-neighbours, claimed with an atomic cursor.
struct PredsState {
  std::vector<std::atomic<std::int32_t>> dist;
  std::vector<std::atomic<double>> sigma;
  std::vector<std::atomic<double>> delta;
  std::vector<Vertex> pred_slots;                  // |arcs| entries
  std::vector<std::atomic<std::uint32_t>> pred_count;  // per vertex
  LevelBuckets levels;
  SlotLocalFrontier next;

  PredsState(const CsrGraph& g, int slots)
      : dist(g.num_vertices()),
        sigma(g.num_vertices()),
        delta(g.num_vertices()),
        pred_slots(g.num_arcs()),
        pred_count(g.num_vertices()),
        next(slots) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      dist[v].store(kUnvisited, std::memory_order_relaxed);
      sigma[v].store(0.0, std::memory_order_relaxed);
      delta[v].store(0.0, std::memory_order_relaxed);
      pred_count[v].store(0, std::memory_order_relaxed);
    }
  }

  void reset_touched() {
    for (Vertex v : levels.touched()) {
      dist[v].store(kUnvisited, std::memory_order_relaxed);
      sigma[v].store(0.0, std::memory_order_relaxed);
      delta[v].store(0.0, std::memory_order_relaxed);
      pred_count[v].store(0, std::memory_order_relaxed);
    }
    levels.clear();
  }
};

}  // namespace

std::vector<double> parallel_preds_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched) {
  const Vertex n = g.num_vertices();
  const int workers = sched.num_workers();
  std::vector<double> bc(n, 0.0);
  PredsState st(g, sched.num_slots());

  std::uint64_t traversed_arcs = 0;
  std::atomic<std::uint64_t> cas_retries{0};
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  Timer phase_timer;

  for (Vertex s = 0; s < n; ++s) {
    st.dist[s].store(0, std::memory_order_relaxed);
    st.sigma[s].store(1.0, std::memory_order_relaxed);
    st.levels.push(s);
    st.levels.finish_level();

    // Forward: expand each level in parallel; claim vertices with CAS on
    // dist, accumulate sigma atomically, record predecessors.
    phase_timer.reset();
    for (std::size_t current = 0; !st.levels.level(current).empty(); ++current) {
      const auto level = st.levels.level(current);
      const auto depth = static_cast<std::int32_t>(current);
      sched.parallel_for(
          0, static_cast<std::int64_t>(level.size()),
          level_grain(level.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int slot) {
            auto& next = st.next.local(slot);
            std::uint64_t lost_claims = 0;
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = level[static_cast<std::size_t>(i)];
              for (Vertex w : g.out_neighbors(v)) {
                std::int32_t expected = kUnvisited;
                if (st.dist[w].compare_exchange_strong(
                        expected, depth + 1, std::memory_order_relaxed)) {
                  next.push_back(w);
                  expected = depth + 1;
                } else if (expected == depth + 1) {
                  ++lost_claims;
                }
                if (expected == depth + 1) {
                  st.sigma[w].fetch_add(
                      st.sigma[v].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
                  const std::uint32_t pos =
                      st.pred_count[w].fetch_add(1, std::memory_order_relaxed);
                  st.pred_slots[g.in_offset(w) + pos] = v;
                }
              }
            }
            if (lost_claims != 0) {
              cas_retries.fetch_add(lost_claims, std::memory_order_relaxed);
            }
          });
      st.next.drain_into(st.levels);
      st.levels.finish_level();
      if (st.levels.level(current + 1).empty()) break;
    }
    forward_seconds += phase_timer.seconds();

    // Backward: per level, scatter dependencies to predecessors. Multiple
    // successors update the same predecessor concurrently -> atomic adds
    // (this contention is exactly what `succs` eliminates).
    phase_timer.reset();
    for (std::size_t lvl = st.levels.num_levels(); lvl-- > 1;) {
      const auto level = st.levels.level(lvl);
      sched.parallel_for(
          0, static_cast<std::int64_t>(level.size()),
          level_grain(level.size(), workers),
          [&](std::int64_t lo, std::int64_t hi, int) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex w = level[static_cast<std::size_t>(i)];
              const double coef =
                  (1.0 + st.delta[w].load(std::memory_order_relaxed)) /
                  st.sigma[w].load(std::memory_order_relaxed);
              const std::uint32_t count =
                  st.pred_count[w].load(std::memory_order_relaxed);
              for (std::uint32_t p = 0; p < count; ++p) {
                const Vertex v = st.pred_slots[g.in_offset(w) + p];
                st.delta[v].fetch_add(
                    st.sigma[v].load(std::memory_order_relaxed) * coef,
                    std::memory_order_relaxed);
              }
              bc[w] += st.delta[w].load(std::memory_order_relaxed);
            }
          });
    }
    backward_seconds += phase_timer.seconds();

    for (Vertex v : st.levels.touched()) traversed_arcs += g.out_degree(v);
    st.reset_touched();
  }

  MetricsRegistry& m = metrics();
  m.counter("bc.preds.sources").add(n);
  m.counter("bc.preds.traversed_arcs").add(traversed_arcs);
  m.counter("bc.preds.cas_retries").add(cas_retries.load(std::memory_order_relaxed));
  m.gauge("bc.preds.forward_seconds").set(forward_seconds);
  m.gauge("bc.preds.backward_seconds").set(backward_seconds);
  return bc;
}

}  // namespace apgre
