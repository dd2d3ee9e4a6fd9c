// The 12 workloads of the paper's Table 1, as deterministic synthetic
// analogues (the SNAP / DIMACS originals are not redistributable offline;
// DESIGN.md §3 documents the substitution). Each analogue matches its
// original's structural class — degree-distribution shape, articulation-
// point density and pendant fraction — which are the properties that drive
// APGRE's redundancy elimination.
//
// Base sizes target a single-core machine (serial Brandes in seconds per
// graph); set APGRE_SCALE=<float> to scale the linear dimension up or down.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace apgre::bench {

struct Workload {
  std::string id;          ///< short analogue id (e.g. "email-enron*")
  std::string paper_name;  ///< the Table-1 graph this stands in for
  std::string klass;       ///< structural class (email/social/web/road/...)
  bool directed;
  std::function<CsrGraph()> build;
};

/// All 12 analogues, in the paper's Table-1 order.
std::vector<Workload> all_workloads(double scale);

/// Scale factor from the APGRE_SCALE environment variable (default 1.0).
double env_scale();

/// Optional comma-separated workload-id filter from APGRE_WORKLOADS
/// (substring match); empty means "all".
std::vector<Workload> selected_workloads();

/// The dblp analogue used by the scaling figure (paper Figure 9).
Workload dblp_workload(double scale);

}  // namespace apgre::bench
