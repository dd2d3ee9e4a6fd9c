// Live centrality monitoring on an evolving network — the dynamic-graph
// setting the paper leaves open. A social network receives a stream of tie
// creations/removals; DynamicBc keeps the exact broker ranking current by
// recomputing only the affected sources, and this example reports how much
// of the full O(|V||E|) recomputation each event actually needed.
#include <algorithm>
#include <cstdio>

#include "check/dynamic.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

int main() {
  using namespace apgre;

  const CsrGraph start = attach_pendants(caveman(12, 9, /*seed=*/31), 80, 32);
  std::printf("monitoring a network of %u members, %llu ties\n",
              start.num_vertices(),
              static_cast<unsigned long long>(start.num_edges()));

  Timer init_timer;
  DynamicBc tracker(start);
  std::printf("initial exact ranking computed in %.3f s\n\n", init_timer.seconds());

  auto top_broker = [&]() {
    const auto& scores = tracker.scores();
    return static_cast<Vertex>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
  };

  Xoshiro256 rng(33);
  const Vertex n = start.num_vertices();
  Vertex total_affected = 0;
  int events = 0;
  std::printf("%-8s %-12s %-10s %-14s %s\n", "event", "tie", "affected",
              "update ms", "top broker");
  while (events < 12) {
    // Triadic closure churn: ties appear/vanish between a member and a
    // friend-of-a-friend — the realistic (and local) social edit.
    const auto u = static_cast<Vertex>(rng.bounded(n));
    const auto friends = tracker.graph().out_neighbors(u);
    if (friends.empty()) continue;
    const Vertex mid = friends[rng.bounded(friends.size())];
    const auto second = tracker.graph().out_neighbors(mid);
    if (second.empty()) continue;
    const Vertex v = second[rng.bounded(second.size())];
    if (u == v) continue;
    const auto outs = tracker.graph().out_neighbors(u);
    const bool present = std::binary_search(outs.begin(), outs.end(), v);
    Timer timer;
    Vertex affected = 0;
    try {
      affected = present ? tracker.remove_edge(u, v) : tracker.insert_edge(u, v);
    } catch (const Error&) {
      continue;
    }
    ++events;
    total_affected += affected;
    std::printf("%-8s %3u-%-7u %4u/%-5u %8.2f       %u\n",
                present ? "cut" : "new", u, v, affected, n, timer.millis(),
                top_broker());
  }

  std::printf("\naverage affected sources per event: %.1f of %u (%.1f%% of a "
              "full recompute)\n",
              static_cast<double>(total_affected) / events, n,
              100.0 * total_affected / (static_cast<double>(events) * n));
  return 0;
}
