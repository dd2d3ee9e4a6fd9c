#include "bc/level_sync.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

constexpr std::int32_t kUnvisited = -1;

// Beamer's switch: expand a level bottom-up when the frontier's out-edges
// exceed the unexplored arcs / kAlpha and the frontier holds more than
// |V| / kBeta vertices.
constexpr double kAlpha = 15.0;
constexpr double kBeta = 20.0;

/// The registry row a run serves; it fixes the direction rule and the
/// backward rule.
enum class Baseline { kPreds, kSuccs, kLockfree, kHybrid };

/// parallel_for chunk size for a list of `n` vertices: big enough to
/// amortise the chunk claim, small enough to split a fat level across
/// `workers`.
std::int64_t grain(std::size_t n, int workers) {
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(n) / (8 * static_cast<std::int64_t>(workers)));
}

/// One slot's share of a level: the vertices it discovered, the pull's
/// candidates it left unvisited and, for the Beamer switch, the
/// discovered vertices' out-edge volume. The lists are concatenated into
/// the next level once the level's loop has returned (the paper's
/// reducer bag).
struct alignas(64) SlotLists {
  std::vector<Vertex> discovered;
  std::vector<Vertex> remaining;
  std::uint64_t out_edges = 0;
};

/// One run of a baseline over every source: the per-run state, sized once
/// and reset in O(touched) after each source, and the phases that read it.
template <Baseline B>
class LevelSyncRun {
 public:
  LevelSyncRun(const CsrGraph& g, WorkStealingScheduler& sched)
      : g_(g),
        sched_(sched),
        n_(g.num_vertices()),
        workers_(sched.num_workers()),
        bc_(n_, 0.0),
        dist_(n_),
        sigma_(n_),
        delta_(n_),
        slots_(static_cast<std::size_t>(sched.num_slots())) {
    if constexpr (kPreds) {
      pred_slots_.resize(g.num_arcs());
      pred_count_ = std::vector<std::atomic<std::uint32_t>>(n_);
    }
    for (Vertex v = 0; v < n_; ++v) {
      dist_[v].store(kUnvisited, std::memory_order_relaxed);
      sigma_[v].store(0.0, std::memory_order_relaxed);
      delta_[v].store(0.0, std::memory_order_relaxed);
      if constexpr (kPreds) pred_count_[v].store(0, std::memory_order_relaxed);
    }
  }

  std::vector<double> run() {
    Timer phase_timer;
    for (Vertex s = 0; s < n_; ++s) {
      phase_timer.reset();
      forward(s);
      forward_seconds_ += phase_timer.seconds();
      phase_timer.reset();
      if constexpr (kPreds) {
        scatter_to_predecessors();
      } else {
        pull_from_successors(s);
      }
      backward_seconds_ += phase_timer.seconds();
      reset();
    }
    flush();
    return std::move(bc_);
  }

 private:
  static constexpr bool kPreds = B == Baseline::kPreds;
  static constexpr bool kHybrid = B == Baseline::kHybrid;
  static constexpr const char* kMetricPrefix =
      kPreds                        ? "bc.preds."
      : B == Baseline::kSuccs       ? "bc.succs."
      : B == Baseline::kLockfree    ? "bc.lockfree."
                                    : "bc.hybrid.";

  std::span<const Vertex> level(std::size_t i) const {
    return {levels_.data() + offsets_[i], levels_.data() + offsets_[i + 1]};
  }
  std::size_t num_levels() const { return offsets_.size() - 1; }

  /// BFS from `s`, one level per iteration, each expanded by the row's
  /// direction rule.
  void forward(Vertex s) {
    dist_[s].store(0, std::memory_order_relaxed);
    sigma_[s].store(1.0, std::memory_order_relaxed);
    levels_.push_back(s);
    offsets_.push_back(levels_.size());
    unvisited_valid_ = false;
    std::uint64_t frontier_out_edges = g_.out_degree(s);
    double explored_arcs = 0.0;
    for (std::int32_t depth = 0;; ++depth) {
      const auto frontier = level(static_cast<std::size_t>(depth));
      bool bottom_up = B == Baseline::kLockfree;
      if constexpr (kHybrid) {
        explored_arcs += static_cast<double>(frontier_out_edges);
        bottom_up = static_cast<double>(frontier_out_edges) >
                        (static_cast<double>(g_.num_arcs()) - explored_arcs) / kAlpha &&
                    static_cast<double>(frontier.size()) >
                        static_cast<double>(n_) / kBeta;
        bottom_up_levels_ += bottom_up ? 1 : 0;
      }
      if (bottom_up) {
        pull(depth);
      } else {
        push(frontier, depth);
      }
      frontier_out_edges = close_level(bottom_up);
      if (level(static_cast<std::size_t>(depth) + 1).empty()) break;
    }
  }

  /// Top-down: each frontier vertex claims its unvisited out-neighbours
  /// with a CAS on dist and adds its sigma to every neighbour one level
  /// down (`preds` also records itself as their predecessor).
  void push(std::span<const Vertex> frontier, std::int32_t depth) {
    const std::int32_t next = depth + 1;
    sched_.parallel_for(
        0, static_cast<std::int64_t>(frontier.size()),
        grain(frontier.size(), workers_),
        [&](std::int64_t lo, std::int64_t hi, int slot) {
          SlotLists& local = slots_[static_cast<std::size_t>(slot)];
          std::uint64_t lost_claims = 0;
          for (std::int64_t i = lo; i < hi; ++i) {
            const Vertex v = frontier[static_cast<std::size_t>(i)];
            const double sv = sigma_[v].load(std::memory_order_relaxed);
            for (Vertex w : g_.out_neighbors(v)) {
              std::int32_t expected = kUnvisited;
              if (dist_[w].compare_exchange_strong(expected, next,
                                                   std::memory_order_relaxed)) {
                local.discovered.push_back(w);
                if constexpr (kHybrid) local.out_edges += g_.out_degree(w);
                expected = next;
              } else if (expected == next) {
                ++lost_claims;
              }
              if (expected == next) {
                sigma_[w].fetch_add(sv, std::memory_order_relaxed);
                if constexpr (kPreds) {
                  const std::uint32_t pos =
                      pred_count_[w].fetch_add(1, std::memory_order_relaxed);
                  pred_slots_[g_.in_offset(w) + pos] = v;
                }
              }
            }
          }
          if (lost_claims != 0) {
            cas_retries_.fetch_add(lost_claims, std::memory_order_relaxed);
          }
        });
  }

  /// Bottom-up: each unvisited vertex sums the sigma of its level-`depth`
  /// in-neighbours, so every dist/sigma cell has one writer. dist stays
  /// atomic: a scan may read the dist of an in-neighbour another slot is
  /// discovering. It then reads kUnvisited or depth + 1, never `depth`, so
  /// either outcome is right, but the access must not be a plain race.
  void pull(std::int32_t depth) {
    if (!unvisited_valid_) {
      unvisited_.clear();
      for (Vertex v = 0; v < n_; ++v) {
        if (dist_[v].load(std::memory_order_relaxed) == kUnvisited) {
          unvisited_.push_back(v);
        }
      }
      unvisited_valid_ = true;
    }
    sched_.parallel_for(
        0, static_cast<std::int64_t>(unvisited_.size()),
        grain(unvisited_.size(), workers_),
        [&](std::int64_t lo, std::int64_t hi, int slot) {
          SlotLists& local = slots_[static_cast<std::size_t>(slot)];
          for (std::int64_t i = lo; i < hi; ++i) {
            const Vertex v = unvisited_[static_cast<std::size_t>(i)];
            double paths = 0.0;
            for (Vertex u : g_.in_neighbors(v)) {
              if (dist_[u].load(std::memory_order_relaxed) == depth) {
                paths += sigma_[u].load(std::memory_order_relaxed);
              }
            }
            if (paths > 0.0) {
              dist_[v].store(depth + 1, std::memory_order_relaxed);
              sigma_[v].store(paths, std::memory_order_relaxed);
              local.discovered.push_back(v);
              if constexpr (kHybrid) local.out_edges += g_.out_degree(v);
            } else {
              local.remaining.push_back(v);
            }
          }
        });
  }

  /// Merge the slots' lists into the next level once the level's loop has
  /// returned, and return its out-edge volume. After a pull the slots'
  /// remaining lists become the unvisited list; a push leaves it stale
  /// until the next pull rebuilds it.
  std::uint64_t close_level(bool pulled) {
    unvisited_valid_ = pulled;
    if (pulled) unvisited_.clear();
    std::uint64_t out_edges = 0;
    for (SlotLists& local : slots_) {
      levels_.insert(levels_.end(), local.discovered.begin(),
                     local.discovered.end());
      unvisited_.insert(unvisited_.end(), local.remaining.begin(),
                        local.remaining.end());
      out_edges += local.out_edges;
      local.discovered.clear();
      local.remaining.clear();
      local.out_edges = 0;
    }
    offsets_.push_back(levels_.size());
    return out_edges;
  }

  /// Backward for `succs`, `lockfree` and `hybrid`: deepest level first,
  /// each vertex pulls its dependency from its successors, so delta[v] has
  /// one writer.
  void pull_from_successors(Vertex s) {
    for (std::size_t lvl = num_levels(); lvl-- > 0;) {
      const auto lv = level(lvl);
      sched_.parallel_for(
          0, static_cast<std::int64_t>(lv.size()), grain(lv.size(), workers_),
          [&](std::int64_t lo, std::int64_t hi, int) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex v = lv[static_cast<std::size_t>(i)];
              const auto dv = dist_[v].load(std::memory_order_relaxed);
              const double sv = sigma_[v].load(std::memory_order_relaxed);
              double acc = 0.0;
              for (Vertex w : g_.out_neighbors(v)) {
                if (dist_[w].load(std::memory_order_relaxed) == dv + 1) {
                  acc += sv / sigma_[w].load(std::memory_order_relaxed) *
                         (1.0 + delta_[w].load(std::memory_order_relaxed));
                }
              }
              delta_[v].store(acc, std::memory_order_relaxed);
              if (v != s) bc_[v] += acc;
            }
          });
    }
  }

  /// Backward for `preds`: deepest level first, each vertex scatters its
  /// dependency to its predecessors. Several successors update one
  /// predecessor concurrently, hence the atomic adds (the contention
  /// `succs` removes).
  void scatter_to_predecessors() {
    for (std::size_t lvl = num_levels(); lvl-- > 1;) {
      const auto lv = level(lvl);
      sched_.parallel_for(
          0, static_cast<std::int64_t>(lv.size()), grain(lv.size(), workers_),
          [&](std::int64_t lo, std::int64_t hi, int) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const Vertex w = lv[static_cast<std::size_t>(i)];
              const double dw = delta_[w].load(std::memory_order_relaxed);
              const double coef =
                  (1.0 + dw) / sigma_[w].load(std::memory_order_relaxed);
              const std::uint32_t count =
                  pred_count_[w].load(std::memory_order_relaxed);
              for (std::uint32_t p = 0; p < count; ++p) {
                const Vertex v = pred_slots_[g_.in_offset(w) + p];
                delta_[v].fetch_add(
                    sigma_[v].load(std::memory_order_relaxed) * coef,
                    std::memory_order_relaxed);
              }
              bc_[w] += dw;
            }
          });
    }
  }

  /// Clear what the last source touched and tally its arcs.
  void reset() {
    for (Vertex v : levels_) {
      traversed_arcs_ += g_.out_degree(v);
      dist_[v].store(kUnvisited, std::memory_order_relaxed);
      sigma_[v].store(0.0, std::memory_order_relaxed);
      delta_[v].store(0.0, std::memory_order_relaxed);
      if constexpr (kPreds) pred_count_[v].store(0, std::memory_order_relaxed);
    }
    levels_.clear();
    offsets_.resize(1);
  }

  void flush() const {
    const std::string prefix(kMetricPrefix);
    MetricsRegistry& m = metrics();
    m.counter(prefix + "sources").add(n_);
    m.counter(prefix + "traversed_arcs").add(traversed_arcs_);
    if constexpr (B != Baseline::kLockfree) {
      m.counter(prefix + "cas_retries")
          .add(cas_retries_.load(std::memory_order_relaxed));
    }
    if constexpr (kHybrid) {
      m.counter(prefix + "bottom_up_levels").add(bottom_up_levels_);
    }
    m.gauge(prefix + "forward_seconds").set(forward_seconds_);
    m.gauge(prefix + "backward_seconds").set(backward_seconds_);
  }

  const CsrGraph& g_;
  WorkStealingScheduler& sched_;
  const Vertex n_;
  const int workers_;
  std::vector<double> bc_;

  std::vector<std::atomic<std::int32_t>> dist_;
  std::vector<std::atomic<double>> sigma_;
  std::vector<std::atomic<double>> delta_;
  /// `preds` only: the predecessors of w fill a prefix of its in-arc
  /// range, claimed with pred_count_[w].
  std::vector<Vertex> pred_slots_;
  std::vector<std::atomic<std::uint32_t>> pred_count_;

  /// The vertices of every level back to back; level i is
  /// levels_[offsets_[i] .. offsets_[i + 1]).
  std::vector<Vertex> levels_;
  std::vector<std::size_t> offsets_{0};
  std::vector<SlotLists> slots_;
  /// The bottom-up scan list; valid from a pull until a push.
  std::vector<Vertex> unvisited_;
  bool unvisited_valid_ = false;

  std::uint64_t traversed_arcs_ = 0;
  std::uint64_t bottom_up_levels_ = 0;
  std::atomic<std::uint64_t> cas_retries_{0};
  double forward_seconds_ = 0.0;
  double backward_seconds_ = 0.0;
};

}  // namespace

std::vector<double> parallel_preds_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched) {
  return LevelSyncRun<Baseline::kPreds>(g, sched).run();
}

std::vector<double> parallel_succs_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched) {
  return LevelSyncRun<Baseline::kSuccs>(g, sched).run();
}

std::vector<double> lockfree_bc(const CsrGraph& g, WorkStealingScheduler& sched) {
  return LevelSyncRun<Baseline::kLockfree>(g, sched).run();
}

std::vector<double> hybrid_bc(const CsrGraph& g, WorkStealingScheduler& sched) {
  return LevelSyncRun<Baseline::kHybrid>(g, sched).run();
}

}  // namespace apgre
