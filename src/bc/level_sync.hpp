// The paper's four fine-grained level-synchronous baselines, one engine
// behind all of them. Every BFS level is expanded in parallel on the
// scheduler and the dependencies flow back level by level; the baselines
// differ only in how a level is expanded and how dependencies flow back:
//
//   `preds`    Bader & Madduri, ICPP 2006 (SSCA v2.2): top-down push that
//              records predecessor lists; the backward phase scatters
//              each vertex's dependency to its predecessors with atomic
//              adds.
//   `succs`    Madduri, Ediger, Jiang, Bader & Chavarria-Miranda, IPDPS
//              2009: top-down push; each vertex pulls its dependency from
//              its successors, so every delta cell has one writer.
//   `lockfree` Tan, Tu & Sun, ICPP 2009 (`lockSyncFree`): every unvisited
//              vertex pulls from its level-d in-neighbours, so every
//              dist/sigma cell has one writer and no atomic
//              read-modify-write is issued; successor-pull backward.
//   `hybrid`   Beamer, Asanovic & Patterson, SC 2012, as in Ligra's BC
//              (Shun & Blelloch, PPoPP 2013): per level, push or pull by
//              Beamer's frontier-volume switch; successor-pull backward.
//
// Each runs every parallel loop on `sched` (the caller's resolved
// scheduler) and reports `bc.<name>.*` metrics (docs/OBSERVABILITY.md).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

std::vector<double> parallel_preds_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched);
std::vector<double> parallel_succs_bc(const CsrGraph& g,
                                      WorkStealingScheduler& sched);
std::vector<double> lockfree_bc(const CsrGraph& g, WorkStealingScheduler& sched);
std::vector<double> hybrid_bc(const CsrGraph& g, WorkStealingScheduler& sched);

}  // namespace apgre
