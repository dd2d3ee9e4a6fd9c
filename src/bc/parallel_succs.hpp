// Fine-grained level-synchronous parallel BC using successor scans instead
// of predecessor lists — Madduri, Ediger, Jiang, Bader, Chavarria-Miranda,
// IPDPS 2009 (the paper's `succs` baseline). The backward phase pulls each
// vertex's dependency from its successors, so each delta cell is written by
// exactly one thread and the phase-2 locks/atomics of `preds` disappear.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Runs every parallel loop on `sched` (the caller's resolved scheduler).
std::vector<double> parallel_succs_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched);

}  // namespace apgre
