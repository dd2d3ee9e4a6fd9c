// Level-synchronous parallel BC without any lock or atomic synchronisation
// — the pull-based approach of Tan, Tu & Sun, ICPP 2009 (the paper's
// `lockSyncFree` baseline). The forward phase discovers level d+1 by having
// every still-unvisited vertex scan its in-neighbours for level-d vertices,
// so each dist/sigma cell has exactly one writer; the backward phase is the
// successor pull of `succs`. Trades synchronisation for extra edge scans.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Runs every parallel loop on `sched` (the caller's resolved scheduler).
std::vector<double> lockfree_bc(const CsrGraph& g,
                                WorkStealingScheduler& sched);

}  // namespace apgre
