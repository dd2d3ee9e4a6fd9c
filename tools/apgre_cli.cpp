// apgre_cli — compute betweenness centrality from the command line.
//
//   apgre_cli --format snap --algorithm apgre --top 20 graph.txt
//   apgre_cli --format dimacs --top 10 usa-road.gr
//   apgre_cli --format snap --directed --algorithm succs --output scores.csv g.txt
//   apgre_cli --threads 4 graph.txt
//
// Formats: snap (edge list), dimacs (.gr), metis. Algorithms: every member
// of the registry (bc/bc.hpp; the --algorithm help text is generated from
// it) plus `edges` for edge betweenness. Graphs are unweighted; a dimacs
// file's arc weights are ignored.
//
// Exit codes: 0 success, 1 runtime failure (unreadable input, internal
// error), 2 usage error (unknown flags / names, integer flags out of range),
// 3 options rejected by validate_options (reported through
// BcResult::status).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "bc/bc.hpp"
#include "bc/edge_bc.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_metis.hpp"
#include "graph/io_snap.hpp"
#include "support/flags.hpp"
#include "support/timer.hpp"

namespace {

using namespace apgre;

void print_top(const std::vector<double>& scores, std::size_t top) {
  std::vector<Vertex> order(scores.size());
  for (Vertex v = 0; v < scores.size(); ++v) order[v] = v;
  const std::size_t k = std::min(top, scores.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(),
                    [&](Vertex a, Vertex b) { return scores[a] > scores[b]; });
  std::printf("rank\tvertex\tscore\n");
  for (std::size_t i = 0; i < k; ++i) {
    std::printf("%zu\t%u\t%.6f\n", i + 1, order[i], scores[order[i]]);
  }
}

/// "--algorithm" help text straight from the registry: "apgre | serial |
/// ... | sampling | edges" plus aliases.
std::string algorithm_help() {
  std::string help;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (!help.empty()) help += " | ";
    help += info.name;
    if (info.alias != nullptr) {
      help += "/";
      help += info.alias;
    }
  }
  return help + " | edges";
}

void write_csv(const std::string& path, const std::vector<double>& scores) {
  std::ofstream out(path);
  APGRE_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out << "vertex,betweenness\n";
  for (Vertex v = 0; v < scores.size(); ++v) {
    out << v << "," << scores[v] << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apgre;

  FlagParser flags(
      "apgre_cli: betweenness centrality via articulation-point-guided "
      "redundancy elimination (PPoPP'16) and baselines.\n"
      "usage: apgre_cli [flags] <graph file>");
  flags.add_string("format", "snap", "input format: snap | dimacs | metis")
      .add_string("algorithm", "apgre", algorithm_help())
      .add_bool("directed", false, "treat the input as directed")
      .add_int("threads", 0, "scheduler workers (0 = one per hardware thread)")
      .add_int("top", 10, "print the k highest-ranked vertices/edges")
      .add_int("samples", 0, "sampling: number of sources (0 = sqrt(n))")
      .add_int("seed", 1, "sampling seed")
      .add_bool("halve-undirected", false,
                "report conventional undirected scores (each pair once)")
      .add_string("output", "", "also write all scores to this CSV file");

  std::vector<std::string> positional;
  std::string algorithm;
  BcOptions opts;
  std::size_t top = 0;
  try {
    positional = flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fprintf(stderr, "%s", flags.help().c_str());
      return 0;
    }
    algorithm = flags.get_string("algorithm");
    if (algorithm != "edges") opts.algorithm = algorithm_from_name(algorithm);
    opts.threads = int_flag<int>(flags, "threads");
    opts.num_samples = int_flag<Vertex>(flags, "samples");
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    opts.undirected_halving = flags.get_bool("halve-undirected");
    top = int_flag<std::size_t>(flags, "top");
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.help().c_str());
    return 2;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr, "%s", flags.help().c_str());
    return 2;
  }

  try {
    const std::string& path = positional.front();
    const std::string format = flags.get_string("format");
    const bool directed = flags.get_bool("directed");

    CsrGraph g;
    if (format == "snap") {
      g = read_snap_file(path, directed).graph;
    } else if (format == "dimacs") {
      g = read_dimacs_file(path, directed);
    } else if (format == "metis") {
      APGRE_REQUIRE(!directed, "metis graphs are undirected");
      g = read_metis_file(path);
    } else {
      throw OptionError("unknown --format " + format);
    }
    std::printf("loaded %s: %u vertices, %llu arcs (%s)\n", path.c_str(),
                g.num_vertices(), static_cast<unsigned long long>(g.num_arcs()),
                g.directed() ? "directed" : "undirected");

    if (algorithm == "edges") {
      Timer timer;
      const auto scores = edge_betweenness_bc(g);
      std::printf("edge betweenness computed in %.3f s\n\n", timer.seconds());
      std::printf("rank\tedge\tscore\n");
      const auto ranked = top_edges(g, scores, top);
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        std::printf("%zu\t%u-%u\t%.6f\n", i + 1, ranked[i].first.src,
                    ranked[i].first.dst, ranked[i].second);
      }
      return 0;
    }

    const BcResult result = betweenness(g, opts);
    if (!result.status.ok()) {
      std::fprintf(stderr, "invalid options: %s\n", result.status.message.c_str());
      return 3;
    }
    std::printf("%s finished in %.3f s (%.1f MTEPS)\n", algorithm.c_str(),
                result.seconds, result.mteps);
    if (opts.algorithm == Algorithm::kApgre) {
      std::printf("decomposition: %zu sub-graphs, %u APs, %u pendants derived, "
                  "%.1f%%+%.1f%% redundancy removed\n",
                  result.apgre_stats.num_subgraphs,
                  result.apgre_stats.num_articulation_points,
                  result.apgre_stats.num_pendants_removed,
                  100.0 * result.apgre_stats.partial_redundancy,
                  100.0 * result.apgre_stats.total_redundancy);
      if (result.apgre_stats.peeled_vertices > 0) {
        std::printf("peel: %u vertices peeled (%.1f%% core) in %.3f s\n",
                    result.apgre_stats.peeled_vertices,
                    100.0 * result.apgre_stats.core_fraction,
                    result.apgre_stats.peel_seconds);
      }
      std::printf("scheduler: %llu tasks (%zu batch / %zu whole), "
                  "%llu steals, %.3f s idle\n",
                  static_cast<unsigned long long>(result.apgre_stats.sched_tasks),
                  result.apgre_stats.num_batch_tasks,
                  result.apgre_stats.num_subgraph_tasks,
                  static_cast<unsigned long long>(result.apgre_stats.sched_steals),
                  result.apgre_stats.sched_idle_seconds);
    }
    std::printf("\n");
    print_top(result.scores, top);
    if (!flags.get_string("output").empty()) {
      write_csv(flags.get_string("output"), result.scores);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
