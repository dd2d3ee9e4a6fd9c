#include "bc/brandes.hpp"

#include <numeric>

#include "bc/brandes_kernel.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace apgre {

std::vector<double> brandes_bc(const CsrGraph& g) {
  std::vector<Vertex> sources(g.num_vertices());
  std::iota(sources.begin(), sources.end(), 0);
  return brandes_bc_from_sources(g, sources, 1.0);
}

std::vector<double> brandes_bc_from_sources(const CsrGraph& g,
                                            const std::vector<Vertex>& sources,
                                            double source_weight) {
  std::vector<double> bc(g.num_vertices(), 0.0);
  detail::BrandesScratch scratch;
  scratch.ensure(g.num_vertices(), g.num_arcs());
  for (Vertex s : sources) {
    APGRE_ASSERT(s < g.num_vertices());
    detail::brandes_iteration(g, s, source_weight, scratch, bc);
  }
  MetricsRegistry& m = metrics();
  m.counter("bc.serial.sources").add(scratch.sources);
  m.counter("bc.serial.traversed_arcs").add(scratch.traversed_arcs);
  m.gauge("bc.serial.forward_seconds").set(scratch.forward_seconds);
  m.gauge("bc.serial.backward_seconds").set(scratch.backward_seconds);
  return bc;
}

}  // namespace apgre
