// End-to-end pipelines: generate -> serialise -> parse -> decompose ->
// score -> compare, mirroring how a downstream user drives the library.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_snap.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Integration, SnapFilePipeline) {
  const CsrGraph original = attach_pendants(barabasi_albert(150, 2, 21), 40, 22);
  TempFile file("pipeline.snap");
  write_snap_file(file.path(), original);
  const SnapGraph loaded = read_snap_file(file.path(), /*directed=*/false);
  ASSERT_EQ(loaded.graph.num_vertices(), original.num_vertices());

  const auto expected = brandes_bc(loaded.graph);
  const BcResult result = betweenness(loaded.graph);
  testing::expect_scores_near(expected, result.scores);
  EXPECT_GT(result.apgre_stats.num_pendants_removed, 0u);
}

TEST(Integration, DimacsRoadPipeline) {
  const CsrGraph original = road_grid(12, 12, 0.25, 0.05, 23);
  TempFile file("road.gr");
  write_dimacs_file(file.path(), original);
  const CsrGraph loaded = read_dimacs_file(file.path(), /*directed=*/false);
  EXPECT_EQ(loaded, original);
  testing::expect_scores_near(brandes_bc(loaded), betweenness(loaded).scores);
}

TEST(Integration, LargestComponentThenBc) {
  // Sparse ER has several components; restrict to the biggest, then rank.
  const CsrGraph g = erdos_renyi(400, 280, false, 25);
  const InducedSubgraph lc = largest_component(g);
  ASSERT_GT(lc.graph.num_vertices(), 10u);
  const auto scores = betweenness(lc.graph).scores;
  testing::expect_scores_near(brandes_bc(lc.graph), scores);
}

TEST(Integration, DecompositionStatsMatchStructureAnalysis) {
  const CsrGraph g = attach_pendants(caveman(8, 10, 26), 60, 27);
  const DegreeStats degrees = degree_stats(g);
  const ApgreStats stats = betweenness(g).apgre_stats;
  // Every degree-1 vertex is a removable pendant here (no K2 components).
  EXPECT_EQ(stats.num_pendants_removed, degrees.pendant_count);
  EXPECT_GT(stats.num_articulation_points, 0u);
}

TEST(Integration, DirectedSnapStreamPipeline) {
  std::stringstream stream;
  write_snap(stream, paper_figure3());
  const SnapGraph loaded = read_snap(stream, /*directed=*/true);
  ASSERT_EQ(loaded.graph.num_vertices(), 13u);
  testing::expect_scores_near(brandes_bc(loaded.graph),
                              betweenness(loaded.graph).scores);
}

TEST(Integration, RankingAgreesAcrossAlgorithms) {
  // The practical downstream use: top-k extraction must be stable across
  // the exact algorithms.
  const CsrGraph g = attach_pendants(barabasi_albert(300, 2, 29), 80, 30);
  auto top_vertex = [](const std::vector<double>& scores) {
    return std::distance(scores.begin(),
                         std::max_element(scores.begin(), scores.end()));
  };
  const auto expected = top_vertex(betweenness(g, {Algorithm::kBrandesSerial}).scores);
  for (Algorithm a : {Algorithm::kApgre, Algorithm::kHybrid, Algorithm::kCoarse}) {
    BcOptions opts;
    opts.algorithm = a;
    EXPECT_EQ(top_vertex(betweenness(g, opts).scores), expected)
        << algorithm_name(a);
  }
}

}  // namespace
}  // namespace apgre
