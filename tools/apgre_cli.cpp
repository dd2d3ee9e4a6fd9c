// apgre_cli — compute betweenness centrality from the command line.
//
//   apgre_cli --format snap --algorithm apgre --top 20 graph.txt
//   apgre_cli --format dimacs --weighted --top 10 usa-road.gr
//   apgre_cli --format snap --directed --algorithm succs --output scores.csv g.txt
//   apgre_cli --threads 4 graph.txt
//
// Formats: snap (edge list), dimacs (.gr), metis. Algorithms: every member
// of the registry (bc/bc.hpp; the --algorithm help text is generated from
// it) plus `edges` for edge betweenness. With --weighted (dimacs only) the
// weighted Dijkstra-based algorithms run instead.
//
// Exit codes: 0 success, 1 runtime failure (unreadable input, internal
// error), 2 usage error (unknown flags / names), 3 options rejected by
// validate_options (reported through BcResult::status).
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bc/bc.hpp"
#include "bc/edge_bc.hpp"
#include "bc/weighted.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_metis.hpp"
#include "graph/io_snap.hpp"
#include "graph/weighted.hpp"
#include "support/flags.hpp"
#include "support/timer.hpp"

namespace {

using namespace apgre;

void print_top(const std::vector<double>& scores, std::int64_t top) {
  std::vector<Vertex> order(scores.size());
  for (Vertex v = 0; v < scores.size(); ++v) order[v] = v;
  const auto k = std::min<std::size_t>(static_cast<std::size_t>(top), scores.size());
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
      .add_bool("weighted", false,
                "use arc weights (dimacs format only; Dijkstra-based)")
      .add_int("threads", 0, "scheduler workers (0 = one per hardware thread)")
      .add_int("top", 10, "print the k highest-ranked vertices/edges")
      .add_int("samples", 0, "sampling: number of sources (0 = sqrt(n))")
      .add_int("seed", 1, "sampling seed")
      .add_bool("halve-undirected", false,
                "report conventional undirected scores (each pair once)")
      .add_string("output", "", "also write all scores to this CSV file");

  std::vector<std::string> positional;
  try {
    positional = flags.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.help().c_str());
    return 2;
  }
  if (flags.help_requested() || positional.size() != 1) {
    std::fprintf(stderr, "%s", flags.help().c_str());
    return flags.help_requested() ? 0 : 2;
  }

  try {
    const std::string& path = positional.front();
    const std::string format = flags.get_string("format");
    const bool directed = flags.get_bool("directed");
    const std::string algorithm = flags.get_string("algorithm");

    // ---- Weighted path --------------------------------------------------
    if (flags.get_bool("weighted")) {
      APGRE_REQUIRE(format == "dimacs", "--weighted requires --format dimacs");
      std::ifstream in(path);
      APGRE_REQUIRE(in.good(), "cannot open " + path);
      const WeightedCsrGraph g = read_dimacs_weighted(in, directed, path);
      std::printf("loaded %s: %u vertices, %llu weighted arcs\n", path.c_str(),
                  g.num_vertices(), static_cast<unsigned long long>(g.num_arcs()));
      Timer timer;
      std::vector<double> scores;
      if (algorithm == "apgre") {
        const int threads = static_cast<int>(flags.get_int("threads"));
        scores = weighted_apgre_bc(g, {}, nullptr,
                                   SchedulerOptions{.threads = threads});
      } else if (algorithm == "serial") {
        scores = weighted_brandes_bc(g);
      } else {
        throw OptionError("--weighted supports --algorithm apgre|serial");
      }
      std::printf("computed in %.3f s\n\n", timer.seconds());
      print_top(scores, flags.get_int("top"));
      if (!flags.get_string("output").empty()) {
        write_csv(flags.get_string("output"), scores);
      }
      return 0;
    }

    // ---- Unweighted path ------------------------------------------------
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
      const auto top = top_edges(g, scores, static_cast<std::size_t>(flags.get_int("top")));
      for (std::size_t i = 0; i < top.size(); ++i) {
        std::printf("%zu\t%u-%u\t%.6f\n", i + 1, top[i].first.src,
                    top[i].first.dst, top[i].second);
      }
      return 0;
    }

    BcOptions opts;
    opts.algorithm = algorithm_from_name(algorithm);
    opts.threads = static_cast<int>(flags.get_int("threads"));
    opts.undirected_halving = flags.get_bool("halve-undirected");
    opts.num_samples = static_cast<Vertex>(flags.get_int("samples"));
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

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
    print_top(result.scores, flags.get_int("top"));
    if (!flags.get_string("output").empty()) {
      write_csv(flags.get_string("output"), result.scores);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
