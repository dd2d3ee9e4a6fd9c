// BC over a direction-optimising ("hybrid") BFS — Beamer, Asanovic &
// Patterson, SC 2012, as used by Ligra's BC application (Shun & Blelloch,
// PPoPP 2013; the paper's `hybrid` baseline). Each BFS level is expanded
// either top-down (frontier pushes) or bottom-up (unvisited vertices pull
// from in-neighbours), switching when the frontier's outgoing-edge volume
// crosses the Beamer thresholds. The backward dependency sweep is the
// successor pull of `succs`.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

struct HybridOptions {
  /// Switch to bottom-up when frontier out-edges exceed remaining-edges/alpha.
  double alpha = 15.0;
  /// Switch back to top-down when the frontier shrinks below |V|/beta.
  double beta = 20.0;
};

/// Runs every parallel loop on `sched` (the caller's resolved scheduler).
std::vector<double> hybrid_bc(const CsrGraph& g, WorkStealingScheduler& sched,
                              const HybridOptions& opts = {});

}  // namespace apgre
