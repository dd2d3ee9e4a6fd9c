// Ablation A3: total-redundancy elimination (gamma / pendant derivation)
// on vs off. Pendant-heavy graphs (email/social analogues) should lose a
// large share of their speedup without it; road graphs barely change.
#include <cstdio>

#include "bc/bc.hpp"
#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  Table table({"Graph", "Pendants", "APGRE s (gamma on)", "APGRE s (gamma off)",
               "Gamma speedup"});
  for (const Workload& w : selected_workloads()) {
    const CsrGraph g = w.build();

    const ApgreStats stats_on = betweenness(g).apgre_stats;

    BcOptions off;
    off.apgre.partition.total_redundancy = false;
    const ApgreStats stats_off = betweenness(g, off).apgre_stats;

    table.row()
        .cell(static_cast<std::string>(w.id))
        .cell(static_cast<std::uint64_t>(stats_on.num_pendants_removed))
        .cell(stats_on.total_seconds, 3)
        .cell(stats_off.total_seconds, 3)
        .cell(stats_on.total_seconds > 0.0
                  ? stats_off.total_seconds / stats_on.total_seconds
                  : 0.0,
              2);
    std::fflush(stdout);
  }
  print_table("Ablation A3: total-redundancy (gamma) elimination on/off", table);
  return 0;
}
