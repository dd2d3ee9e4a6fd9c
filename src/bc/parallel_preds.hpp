// Fine-grained level-synchronous parallel BC with explicit predecessor
// lists — Bader & Madduri, ICPP 2006 (the paper's `preds` baseline, part of
// the SSCA v2.2 benchmark). Vertices of a BFS level are expanded in
// parallel; sigma and the backward dependency accumulation use atomic
// updates (the synchronisation cost the `succs` variant removes).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Runs every parallel loop on `sched` (the caller's resolved scheduler).
std::vector<double> parallel_preds_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched);

}  // namespace apgre
