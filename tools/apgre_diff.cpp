// apgre_diff — differential / metamorphic / invariant sweep driver.
//
//   apgre_diff --seed 1..20 --algo-set exact
//   apgre_diff --seed 7 --cases pendants --verbose
//   apgre_diff --seed 1..5 --large --algo-set apgre,serial,lockfree
//
// For every seed in the range and every corpus case (check/corpus.hpp) the
// tool diffs the selected algorithms against serial Brandes with per-vertex
// blame, runs the metamorphic rules (rotating the algorithm under test
// through the set), replays a random incremental trajectory against the
// static reference, validates the decomposition + ApgreStats invariants,
// and checks the block decomposition against its independent ground truths
// (check_decomposition_agreement). Exit status 0 means zero divergence
// above tolerance; 1 means at least one check failed (details on stderr);
// 2 is a usage error (including --threads outside [0, 1024] and
// --max-naive outside the vertex-id range).
// CI and fuzzing drive this binary; a failing (seed, case) pair is
// reproducible by rerunning with the same flags (see docs/TESTING.md).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/invariants.hpp"
#include "check/metamorphic.hpp"
#include "check/oracle.hpp"
#include "support/flags.hpp"
#include "support/timer.hpp"

namespace {

using namespace apgre;

/// "--seed 7" or "--seed 1..20" (inclusive range).
std::pair<std::uint64_t, std::uint64_t> parse_seed_range(const std::string& spec) {
  const auto dots = spec.find("..");
  try {
    if (dots == std::string::npos) {
      const std::uint64_t seed = std::stoull(spec);
      return {seed, seed};
    }
    const std::uint64_t first = std::stoull(spec.substr(0, dots));
    const std::uint64_t last = std::stoull(spec.substr(dots + 2));
    APGRE_REQUIRE(first <= last, "--seed range must be ascending");
    return {first, last};
  } catch (const std::invalid_argument&) {
    throw OptionError("--seed expects N or A..B, got `" + spec + "`");
  } catch (const std::out_of_range&) {
    throw OptionError("--seed value out of range: `" + spec + "`");
  }
}

std::vector<Algorithm> parse_algo_set(const std::string& spec) {
  if (spec == "exact") return {};  // oracle default: exact_algorithm_set(g)
  std::vector<Algorithm> set;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) set.push_back(algorithm_from_name(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  APGRE_REQUIRE(!set.empty(), "--algo-set selected no algorithms");
  return set;
}

struct SweepCounters {
  std::size_t graphs = 0;
  std::size_t differential_runs = 0;
  std::size_t metamorphic_checks = 0;
  std::size_t invariant_graphs = 0;
  std::size_t agreement_graphs = 0;
  std::size_t trajectory_steps = 0;
  std::size_t failures = 0;
  double worst_divergence = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "apgre_diff: cross-algorithm differential + metamorphic + invariant "
      "sweep over the seeded graph corpus.\n"
      "usage: apgre_diff [flags]");
  flags.add_string("seed", "1", "seed or inclusive range A..B")
      .add_string("algo-set", "exact",
                  "`exact` (every exact algorithm, naive when small) or a "
                  "comma list of names")
      .add_string("cases", "", "only corpus cases whose name contains this")
      .add_bool("large", false, "use the large corpus (naive auto-skipped)")
      .add_bool("metamorphic", true, "run the metamorphic rules")
      .add_bool("invariants", true, "check decomposition + ApgreStats invariants")
      .add_double("rel", 1e-7, "relative score tolerance")
      .add_double("abs", 1e-6, "absolute score tolerance")
      .add_int("max-naive", 256, "largest |V| the O(V^3) naive oracle runs on")
      .add_int("threads", 0, "scheduler workers (0 = one per hardware thread)")
      .add_bool("verbose", false, "print every case, not only failures");

  std::pair<std::uint64_t, std::uint64_t> seeds;
  OracleOptions oracle;
  bool large = false;
  try {
    const auto positional = flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fprintf(stderr, "%s", flags.help().c_str());
      return 0;
    }
    APGRE_REQUIRE(positional.empty(), "apgre_diff takes no positional arguments");
    seeds = parse_seed_range(flags.get_string("seed"));
    oracle.algorithms = parse_algo_set(flags.get_string("algo-set"));
    oracle.rel_tolerance = flags.get_double("rel");
    oracle.abs_tolerance = flags.get_double("abs");
    oracle.max_naive_vertices = int_flag<Vertex>(flags, "max-naive");
    oracle.threads = int_flag<int>(flags, "threads", 0, kMaxSolveThreads);
    large = flags.get_bool("large");
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.help().c_str());
    return 2;
  }

  const std::string case_filter = flags.get_string("cases");
  const bool verbose = flags.get_bool("verbose");
  SweepCounters counters;
  Timer timer;

  for (std::uint64_t seed = seeds.first; seed <= seeds.second; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/!large)) {
      if (c.name.find(case_filter) == std::string::npos) continue;
      ++counters.graphs;
      const std::string tag = "seed " + std::to_string(seed) + " " + c.name;

      // --- Differential oracle ------------------------------------------
      const OracleReport report = differential_check(c.graph, oracle);
      counters.differential_runs += report.algorithms.size();
      counters.worst_divergence =
          std::max(counters.worst_divergence, report.max_divergence);
      if (!report.ok) {
        ++counters.failures;
        std::fprintf(stderr, "FAIL [differential] %s\n%s", tag.c_str(),
                     report.summary().c_str());
      } else if (verbose) {
        std::printf("ok   [differential] %s: max divergence %.3g\n",
                    tag.c_str(), report.max_divergence);
      }

      // --- Metamorphic rules, rotating the algorithm under test ---------
      if (flags.get_bool("metamorphic")) {
        std::vector<Algorithm> pool = oracle.algorithms;
        if (pool.empty()) pool = exact_algorithm_set(c.graph, 0);  // no naive
        BcOptions under_test;
        under_test.algorithm = pool[counters.graphs % pool.size()];
        under_test.threads = oracle.threads;
        for (const MetamorphicResult& r :
             run_metamorphic_rules(c.graph, under_test, seed,
                                   oracle.rel_tolerance, oracle.abs_tolerance)) {
          if (!r.applied) continue;
          ++counters.metamorphic_checks;
          if (!r.ok) {
            ++counters.failures;
            std::fprintf(stderr, "FAIL [metamorphic:%s] %s (%s): %s\n",
                         r.rule.c_str(), tag.c_str(),
                         algorithm_name(under_test.algorithm).c_str(),
                         r.detail.c_str());
          } else if (verbose) {
            std::printf("ok   [metamorphic:%s] %s (%s)\n", r.rule.c_str(),
                        tag.c_str(),
                        algorithm_name(under_test.algorithm).c_str());
          }
        }
      }

      // --- Incremental trajectory ---------------------------------------
      // After every random edge mutation the tracked solver — including its
      // structural fallbacks when an update lands on the peeled forest —
      // must match a from-scratch static solve on the mutated graph.
      if (c.graph.num_vertices() >= 2 && c.graph.num_vertices() <= 2000) {
        BcOptions engine;
        engine.threads = oracle.threads;
        const std::vector<DynamicStep> steps =
            random_dynamic_steps(c.graph, /*count=*/4, seed);
        const OracleReport trajectory =
            incremental_differential_check(c.graph, steps, engine, oracle);
        counters.trajectory_steps += trajectory.algorithms.size();
        counters.worst_divergence =
            std::max(counters.worst_divergence, trajectory.max_divergence);
        if (!trajectory.ok) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [trajectory] %s\n%s", tag.c_str(),
                       trajectory.summary().c_str());
        } else if (verbose) {
          std::printf("ok   [trajectory] %s: %zu steps, max divergence %.3g\n",
                      tag.c_str(), trajectory.algorithms.size(),
                      trajectory.max_divergence);
        }
      }

      // --- Decomposition + stats invariants -----------------------------
      if (flags.get_bool("invariants")) {
        ++counters.invariant_graphs;
        const Decomposition dec = decompose(c.graph);
        std::vector<std::string> violations =
            check_decomposition_invariants(c.graph, dec, /*max_reach_checks=*/64);
        BcOptions apgre_run;
        apgre_run.algorithm = Algorithm::kApgre;
        apgre_run.threads = oracle.threads;
        const BcResult result = betweenness(c.graph, apgre_run);
        for (std::string& v :
             check_stats_invariants(c.graph, result.apgre_stats)) {
          violations.push_back(std::move(v));
        }
        if (!violations.empty()) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [invariants] %s:\n", tag.c_str());
          for (const std::string& v : violations) {
            std::fprintf(stderr, "  %s\n", v.c_str());
          }
        } else if (verbose) {
          std::printf("ok   [invariants] %s\n", tag.c_str());
        }
      }

      // --- Block decomposition against its ground truths -----------------
      {
        ++counters.agreement_graphs;
        const std::vector<std::string> violations =
            check_decomposition_agreement(c.graph);
        if (!violations.empty()) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [agreement] %s:\n", tag.c_str());
          for (const std::string& v : violations) {
            std::fprintf(stderr, "  %s\n", v.c_str());
          }
        } else if (verbose) {
          std::printf("ok   [agreement] %s\n", tag.c_str());
        }
      }
    }
  }

  if (counters.graphs == 0) {
    // A typo'd --cases filter must not read as a clean sweep.
    std::fprintf(stderr, "error: no corpus case matches --cases `%s`\n",
                 case_filter.c_str());
    return 2;
  }
  std::printf(
      "apgre_diff: seeds %llu..%llu, %zu graphs, "
      "%zu differential runs, %zu metamorphic checks, %zu invariant graphs, "
      "%zu trajectory steps, %zu agreement graphs; "
      "worst divergence %.3g; %zu failures in %.2f s\n",
      static_cast<unsigned long long>(seeds.first),
      static_cast<unsigned long long>(seeds.second), counters.graphs,
      counters.differential_runs,
      counters.metamorphic_checks, counters.invariant_graphs,
      counters.trajectory_steps,
      counters.agreement_graphs, counters.worst_divergence, counters.failures,
      timer.seconds());
  return counters.failures == 0 ? 0 : 1;
}
