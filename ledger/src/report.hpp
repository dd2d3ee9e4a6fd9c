// Measurement plumbing shared by the ledger workloads: the metric tables,
// order statistics, bench-side spans and the report each run prints.
//
// The metric names here are the ones BENCHMARK.json at the repository root
// declares; ledger/smoke.py checks the two lists agree.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Quantile q in [0, 1] of `values` with linear interpolation between
/// order statistics; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Mean of the middle half of `values` (between the quartiles). Unlike the
/// median it moves smoothly when operations fall into two modes, e.g. a
/// parallel solve that finishes one task-length early or late.
double interquartile_mean(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Minor page faults this process has taken so far.
double minor_faults();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the library sees; every workload reports each one.
extern const std::vector<MetricSpec> kEndToEnd;
/// Single layers; reported by traced runs, 0 where a workload does not
/// exercise the layer.
extern const std::vector<MetricSpec> kPerLayer;

/// One call into a layer, timed around its public function by the
/// benchmark. Spans of one operation share `op`; `parent` names the span
/// that caused this one ("" for an operation's root span).
struct Span {
  std::string name;
  std::string parent;
  std::uint64_t op = 0;
  int thread = 0;
  double start = 0.0;  ///< seconds since the log's epoch
  double end = 0.0;
};

/// Spans of one thread, kept in memory and written out when the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int thread) : epoch_(epoch), thread_(thread) {}

  /// Runs `fn` as span `name` of operation `op` and returns its seconds.
  template <class Fn>
  double time(const char* name, const char* parent, std::uint64_t op, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_.push_back(Span{name, parent, op, thread_,
                          seconds_between(epoch_, start),
                          seconds_between(epoch_, end)});
    return seconds_between(start, end);
  }

  /// Records an interval measured elsewhere (e.g. a reply's own timing).
  void add(Span span) { spans_.push_back(std::move(span)); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  int thread_;
  std::vector<Span> spans_;
};

/// Writes spans as Chrome trace-event JSON (viewable in Perfetto).
void write_trace(std::ostream& out, const std::vector<Span>& spans);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind `value` (0: a scalar)
  double q1 = 0.0;
  double q3 = 0.0;
};

class Report {
 public:
  Report(std::string workload, std::uint64_t seed, double seconds, bool traced)
      : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
        traced_(traced) {}

  /// A scalar metric; `name` must be in kEndToEnd or kPerLayer.
  void set(const std::string& name, double value);
  /// A metric summarising `samples` (each multiplied by `scale`): the
  /// median, the sample count and the quartiles.
  void set_samples(const std::string& name, const std::vector<double>& samples,
                   double scale = 1.0);
  /// The q-quantile of `samples` and the sample count.
  void set_quantile(const std::string& name, const std::vector<double>& samples,
                    double q, double scale = 1.0);
  /// The end-to-end latency metrics: op_ms, the mean of `op` (with its
  /// quartiles), and, when `wall` > 0, ops_per_s: `ops` operations over
  /// `wall` seconds.
  void set_latency(const std::vector<double>& op, std::size_t ops, double wall);

  /// An exactness gate failed: the run's outputs are wrong.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines, then the one-line result of this run's mode
  /// (end-to-end metrics untraced, per-layer metrics traced).
  void print(std::ostream& out) const;
  /// Full report: every metric measured, with sample counts and quartiles.
  void write_json(std::ostream& out) const;

 private:
  Metric& slot(const std::string& name);
  double get(const std::string& name) const;

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  bool traced_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace ledger
