#include "bc/coarse.hpp"

#include <algorithm>

#include "bc/brandes_kernel.hpp"
#include "support/metrics.hpp"

namespace apgre {

std::vector<double> coarse_bc(const CsrGraph& g, WorkStealingScheduler& sched) {
  const Vertex n = g.num_vertices();
  // Contiguous source chunks, each scored into its own buffer and summed
  // in chunk order below, so the scores do not depend on which worker ran
  // which chunk. Four chunks per worker leave room to steal while memory
  // stays O(workers * |V|).
  const std::int64_t chunks =
      std::min<std::int64_t>(n, 4 * std::int64_t{sched.num_workers()});
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(chunks));
  std::vector<detail::BrandesScratch> scratch(
      static_cast<std::size_t>(sched.num_slots()));
  sched.parallel_for(0, chunks, 1, [&](std::int64_t lo, std::int64_t hi, int slot) {
    detail::BrandesScratch& sc = scratch[static_cast<std::size_t>(slot)];
    sc.ensure(n, g.num_arcs());
    for (std::int64_t c = lo; c < hi; ++c) {
      std::vector<double>& bc = partial[static_cast<std::size_t>(c)];
      bc.assign(n, 0.0);
      for (std::int64_t s = c * n / chunks; s < (c + 1) * n / chunks; ++s) {
        detail::brandes_iteration(g, static_cast<Vertex>(s), 1.0, sc, bc);
      }
    }
  });

  std::vector<double> bc(n, 0.0);
  for (const std::vector<double>& chunk : partial) {
    for (Vertex v = 0; v < n; ++v) bc[v] += chunk[v];
  }
  std::uint64_t traversed_arcs = 0;
  // Summed across slots, so these are CPU seconds, not wall time.
  double forward_cpu_seconds = 0.0;
  double backward_cpu_seconds = 0.0;
  for (const detail::BrandesScratch& sc : scratch) {
    traversed_arcs += sc.traversed_arcs;
    forward_cpu_seconds += sc.forward_seconds;
    backward_cpu_seconds += sc.backward_seconds;
  }

  MetricsRegistry& m = metrics();
  m.counter("bc.coarse.sources").add(n);
  m.counter("bc.coarse.traversed_arcs").add(traversed_arcs);
  m.gauge("bc.coarse.forward_cpu_seconds").set(forward_cpu_seconds);
  m.gauge("bc.coarse.backward_cpu_seconds").set(backward_cpu_seconds);
  return bc;
}

}  // namespace apgre
