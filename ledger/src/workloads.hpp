// The four ledger workloads. Each derives every input from the seed, runs
// its operation for the time budget, checks the outputs outside the timed
// region and fills the report. A traced run swaps each operation's single
// entry call for the same layer calls made one at a time, timed with
// bench-side spans.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace ledger {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  double scale = 1.0;
};

void social_solve(const RunOptions& opt, Report& report, std::vector<Span>& spans);
void road_solve(const RunOptions& opt, Report& report, std::vector<Span>& spans);
void tenant_serve(const RunOptions& opt, Report& report, std::vector<Span>& spans);
void caveman_stream(const RunOptions& opt, Report& report, std::vector<Span>& spans);

/// A traced run's per-operation layer samples, keyed by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 7;
/// Operations every measured phase runs, however short its budget.
inline constexpr std::size_t kMinOps = 3;

/// Calls op(i) for i = 0, 1, ... until `seconds` have passed and at least
/// `min_ops` calls ran; returns the wall seconds taken.
template <class Op>
double run_for(double seconds, std::size_t min_ops, Op&& op) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < min_ops || seconds_since(start) < seconds; ++i) {
    op(i);
  }
  return seconds_since(start);
}

/// Fails the report unless `actual` matches `expected` within the
/// differential oracle's tolerance (1e-6 absolute + 1e-7 relative).
inline void check_scores(Report& report, const std::string& what,
                         const std::vector<double>& expected,
                         const std::vector<double>& actual) {
  if (expected.size() != actual.size()) {
    report.fail(what + ": " + std::to_string(actual.size()) + " scores, expected " +
                std::to_string(expected.size()));
    return;
  }
  for (std::size_t v = 0; v < expected.size(); ++v) {
    const double a = expected[v];
    const double b = actual[v];
    if (!(std::abs(a - b) <= 1e-6 + 1e-7 * std::max(std::abs(a), std::abs(b)))) {
      report.fail(what + ": vertex " + std::to_string(v) + " scored " +
                  std::to_string(b) + ", expected " + std::to_string(a));
      return;
    }
  }
}

}  // namespace ledger
