// Ablation A7: the algebraic (Combinatorial-BLAS-style, Buluc & Gilbert)
// 64-wide batched Brandes against source-at-a-time Brandes and APGRE.
// Batching amortises adjacency traversal but cannot skip redundant
// sub-DAGs — the comparison shows both effects.
#include <cstdio>

#include "bc/algebraic.hpp"
#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  Table table({"Graph", "Serial s", "Batched s", "APGRE s", "Batched speedup",
               "APGRE speedup"});
  for (const Workload& w : selected_workloads()) {
    const CsrGraph g = w.build();

    Timer serial_timer;
    const auto serial = brandes_bc(g);
    const double serial_s = serial_timer.seconds();

    Timer batched_timer;
    const auto batched = algebraic_bc(g);
    const double batched_s = batched_timer.seconds();

    Timer apgre_timer;
    const auto fast = betweenness(g).scores;
    const double apgre_s = apgre_timer.seconds();
    (void)serial;
    (void)batched;
    (void)fast;

    table.row()
        .cell(w.id)
        .cell(serial_s, 3)
        .cell(batched_s, 3)
        .cell(apgre_s, 3)
        .cell(batched_s > 0.0 ? serial_s / batched_s : 0.0, 2)
        .cell(apgre_s > 0.0 ? serial_s / apgre_s : 0.0, 2);
    std::fflush(stdout);
  }
  print_table("Ablation A7: batched (algebraic) Brandes vs APGRE", table);
  return 0;
}
