#include "bc/coarse.hpp"

#include "bc/brandes_kernel.hpp"
#include "support/metrics.hpp"

namespace apgre {

namespace {

/// One slot's private state, sized on the slot's first chunk.
struct SlotState {
  detail::BrandesScratch scratch;
  std::vector<double> bc;
};

}  // namespace

std::vector<double> coarse_bc(const CsrGraph& g, WorkStealingScheduler& sched) {
  const Vertex n = g.num_vertices();
  std::vector<SlotState> slots(static_cast<std::size_t>(sched.num_slots()));
  sched.parallel_for(0, static_cast<std::int64_t>(n), 16,
                     [&](std::int64_t lo, std::int64_t hi, int slot) {
                       SlotState& st = slots[static_cast<std::size_t>(slot)];
                       if (st.bc.empty()) {
                         st.scratch.ensure(n, g.num_arcs());
                         st.bc.assign(n, 0.0);
                       }
                       for (std::int64_t s = lo; s < hi; ++s) {
                         detail::brandes_iteration(g, static_cast<Vertex>(s), 1.0,
                                                   st.scratch, st.bc);
                       }
                     });

  // Merge after the loop has returned (the per-slot REDUCTION).
  std::vector<double> bc(n, 0.0);
  std::uint64_t traversed_arcs = 0;
  // Summed across slots, so these are CPU seconds, not wall time.
  double forward_cpu_seconds = 0.0;
  double backward_cpu_seconds = 0.0;
  for (const SlotState& st : slots) {
    if (st.bc.empty()) continue;
    for (Vertex v = 0; v < n; ++v) bc[v] += st.bc[v];
    traversed_arcs += st.scratch.traversed_arcs;
    forward_cpu_seconds += st.scratch.forward_seconds;
    backward_cpu_seconds += st.scratch.backward_seconds;
  }

  MetricsRegistry& m = metrics();
  m.counter("bc.coarse.sources").add(n);
  m.counter("bc.coarse.traversed_arcs").add(traversed_arcs);
  m.gauge("bc.coarse.forward_cpu_seconds").set(forward_cpu_seconds);
  m.gauge("bc.coarse.backward_cpu_seconds").set(backward_cpu_seconds);
  return bc;
}

}  // namespace apgre
