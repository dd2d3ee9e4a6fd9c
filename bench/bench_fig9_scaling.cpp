// Paper Figure 9: parallel scaling of every algorithm on the dblp analogue
// as the worker count grows (1..12 in the paper, on a 6-core SMT system).
// BcOptions::threads sizes each solve's work-stealing scheduler, APGRE
// included. Columns beyond the host's hardware thread count oversubscribe
// and are expected to flatten or decline; EXPERIMENTS.md records measured
// 1/2/4-worker medians on a 4-thread host.
#include <cstdio>
#include <thread>

#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  const Workload w = dblp_workload(env_scale());
  const CsrGraph g = w.build();
  std::printf("Workload %s: %u vertices, %llu arcs\n", w.id.c_str(),
              g.num_vertices(), static_cast<unsigned long long>(g.num_arcs()));

  const std::vector<int> thread_counts{1, 2, 4, 8, 12};
  std::vector<std::string> header{"Algorithm"};
  for (int t : thread_counts) header.push_back(std::to_string(t) + "t");
  Table table(header);

  // Serial reference for the speedup rows.
  const auto serial = timed_run(g, Algorithm::kBrandesSerial);
  const double serial_seconds = serial ? serial->seconds : 0.0;
  std::printf("serial Brandes: %.3f s\n", serial_seconds);

  for (Algorithm a : comparison_algorithms()) {
    if (a == Algorithm::kBrandesSerial) continue;
    table.row().cell(algorithm_name(a));
    for (int threads : thread_counts) {
      BcOptions opts;
      opts.algorithm = a;
      opts.threads = threads;
      if (!run_everything() && cost_estimate(g, a) > 6e9) {
        table.dash();
        continue;
      }
      const BcResult r = betweenness(g, opts);
      table.cell(serial_seconds > 0.0 ? serial_seconds / r.seconds : 0.0, 2);
      std::fflush(stdout);
    }
  }
  print_table("Figure 9: speedup over serial vs worker count (dblp analogue)",
              table);
  std::printf("(%u hardware threads: wider columns oversubscribe)\n",
              std::thread::hardware_concurrency());
  return 0;
}
