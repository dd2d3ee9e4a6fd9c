#include "support/stats.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace apgre {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const std::size_t combined = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(combined);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(combined);
  n_ = combined;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Log2Histogram::add(std::uint64_t value) {
  std::size_t bucket = 0;
  if (value > 0) bucket = static_cast<std::size_t>(63 - __builtin_clzll(value));
  if (counts_.size() <= bucket) counts_.resize(bucket + 1, 0);
  ++counts_[bucket];
  ++total_;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Log2Histogram::buckets() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    out.emplace_back(std::uint64_t{1} << k, counts_[k]);
  }
  return out;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  for (const auto& [lo, count] : buckets()) {
    os << "[" << lo << ", " << lo * 2 << "): " << count << "\n";
  }
  return os.str();
}

double geometric_mean(const std::vector<double>& values) {
  APGRE_ASSERT(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    APGRE_ASSERT_MSG(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace apgre
