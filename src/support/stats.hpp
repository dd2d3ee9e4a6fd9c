// Streaming statistics and histograms for graph/degree analysis and for
// benchmark reporting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace apgre {

/// Welford streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  /// Fold another accumulator in (Chan et al. pairwise combination), as if
  /// every sample of `other` had been add()ed here. Lets per-thread
  /// accumulators run independently and combine at the end instead of
  /// serializing through one shared instance.
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Log2-bucketed histogram for degree distributions: bucket k counts values
/// in [2^k, 2^(k+1)). Bucket 0 additionally holds the value 0.
class Log2Histogram {
 public:
  void add(std::uint64_t value);
  /// (bucket lower bound, count) pairs for non-empty buckets, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets() const;
  std::uint64_t total() const { return total_; }
  /// Render as a small ASCII table (used by bench_fig2_structure).
  std::string to_string() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Geometric mean of a set of positive values; the paper reports average
/// speedups, which for ratios should be geometric.
double geometric_mean(const std::vector<double>& values);

}  // namespace apgre
