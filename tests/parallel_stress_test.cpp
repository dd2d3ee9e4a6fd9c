// Multi-threaded stress tier for the five parallel BC backends (preds,
// succs, lockfree, coarse, hybrid): repeated runs on adversarial shapes —
// a star (one giant level), a long path (many one-vertex levels), a dense
// biconnected component and a barbell — differentially checked against
// serial Brandes, at worker counts {1, 2, 4} (BcOptions::threads sizes
// the solve's scheduler). On hosts with fewer cores the counts
// oversubscribe deliberately: context switches mid-kernel widen race
// windows, which is exactly what this tier (and the ThreadSanitizer CI job
// that runs it) is for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

constexpr int kRepetitions = 3;

const std::vector<Algorithm>& parallel_backends() {
  static const std::vector<Algorithm> backends = {
      Algorithm::kParallelPreds, Algorithm::kParallelSuccs, Algorithm::kLockFree,
      Algorithm::kCoarse, Algorithm::kHybrid};
  return backends;
}

std::vector<int> thread_counts() { return {1, 2, 4}; }

struct AdversarialGraph {
  std::string name;
  CsrGraph graph;
};

std::vector<AdversarialGraph> adversarial_graphs() {
  std::vector<AdversarialGraph> graphs;
  // One giant BFS level: every worker hammers the same frontier.
  graphs.push_back({"star_200", star(200)});
  // 200 levels of a single vertex: maximal fork/join churn per source.
  graphs.push_back({"path_200", path(200)});
  // Dense biconnected component: no articulation points, heavy sigma
  // contention on the CAS-claimed forward phase.
  graphs.push_back({"complete_24", complete(24)});
  // Articulation-point stress shape plus pendant decorations.
  graphs.push_back({"barbell_pendants",
                    attach_pendants(barbell(12, 6), /*count=*/24, /*seed=*/99)});
  return graphs;
}

void expect_backend_matches_serial(const CsrGraph& g, Algorithm backend,
                                   int threads, const std::vector<double>& expected,
                                   const std::string& tag) {
  BcOptions opts;
  opts.algorithm = backend;
  opts.threads = threads;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::vector<double> actual = betweenness(g, opts).scores;
    const ScoreComparison cmp = compare_scores(expected, actual);
    EXPECT_TRUE(cmp.ok) << tag << " algorithm " << algorithm_name(backend)
                        << " threads " << threads << " rep " << rep
                        << ": worst vertex " << cmp.worst_vertex << " expected "
                        << cmp.expected_score << " got " << cmp.actual_score;
    if (!cmp.ok) return;  // one blamed failure per configuration is enough
  }
}

TEST(ParallelStressTest, BackendsMatchSerialOnAdversarialGraphs) {
  for (const AdversarialGraph& ag : adversarial_graphs()) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(ag.graph, serial).scores;
    for (Algorithm backend : parallel_backends()) {
      for (int threads : thread_counts()) {
        expect_backend_matches_serial(ag.graph, backend, threads, expected,
                                      ag.name);
      }
    }
  }
}

// The sweep the TSan CI job leans on: every parallel backend over the tiny
// check corpus with forced concurrency (4+ threads even on small hosts).
TEST(ParallelStressTest, BackendsMatchSerialOnCheckCorpus) {
  const int threads = 4;
  for (const CorpusCase& c : graph_corpus(/*seed=*/5, /*tiny=*/true)) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(c.graph, serial).scores;
    for (Algorithm backend : parallel_backends()) {
      expect_backend_matches_serial(c.graph, backend, threads, expected, c.name);
    }
  }
}

// APGRE's two-level parallelism (one task per small sub-graph, root batches
// of large ones) rides along under the same worker counts.
TEST(ParallelStressTest, ApgreMatchesSerialUnderForcedConcurrency) {
  for (const AdversarialGraph& ag : adversarial_graphs()) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(ag.graph, serial).scores;
    for (int threads : thread_counts()) {
      expect_backend_matches_serial(ag.graph, Algorithm::kApgre, threads,
                                    expected, ag.name);
    }
  }
}

// Work-stealing scheduler stress: a skewed decomposition (one block large
// enough to split into root batches plus many tiny satellite blocks, chains
// and pendants) scored through the scheduler at every worker count. TSan
// sees the Chase-Lev deque, the per-slot buffer merge and the batch tasks
// of the large block under real contention.
TEST(ParallelStressTest, SchedulerMatchesSerialOnSkewedDecomposition) {
  const CsrGraph g = testing::large_block_graph();

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const std::vector<double> expected = betweenness(g, serial).scores;

  for (int threads : thread_counts()) {
    BcOptions opts;
    opts.algorithm = Algorithm::kApgre;
    opts.threads = threads;
    const std::string tag = "skewed threads " + std::to_string(threads);
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const BcResult r = betweenness(g, opts);
      ASSERT_TRUE(r.status.ok()) << tag;
      EXPECT_GT(r.apgre_stats.num_batch_tasks, 0u) << tag;
      const ScoreComparison cmp = compare_scores(expected, r.scores);
      EXPECT_TRUE(cmp.ok)
          << tag << " rep " << rep << ": worst vertex " << cmp.worst_vertex
          << " expected " << cmp.expected_score << " got " << cmp.actual_score;
      if (!cmp.ok) return;
    }
  }
}

}  // namespace
}  // namespace apgre
