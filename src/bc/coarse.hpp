// Coarse-grained source-parallel BC: the sources are cut into contiguous
// chunks (four per worker) that the scheduler's workers take; each chunk
// runs the serial Brandes kernel into its own score buffer, and the buffers
// are summed in chunk order at the end, so a run at a given worker count
// is bitwise reproducible. No barriers between sources —
// this is the shared-memory stand-in for the Galois-based asynchronous
// algorithm of Prountzos & Pingali, PPoPP 2013 (the paper's `async`
// column), whose defining property is the absence of level synchronisation
// across the per-source computations.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Runs every parallel loop on `sched` (the caller's resolved scheduler).
std::vector<double> coarse_bc(const CsrGraph& g,
                              WorkStealingScheduler& sched);

}  // namespace apgre
