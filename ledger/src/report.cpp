#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace ledger {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.coalesce_us", "us"},
    {"graph.apply_ops_us", "us"},
    {"bcc.decompose_ms", "ms"},
    {"bcc.reach_ms", "ms"},
    {"bcc.classify_us", "us"},
    {"bcc.patch_us", "us"},
    {"bcc.blocks", "count"},
    {"bcc.subgraphs", "count"},
    {"bcc.top_vertices", "count"},
    {"bcc.decompositions_per_op", "count"},
    {"bc.score_ms", "ms"},
    {"bc.score.top_ms", "ms"},
    {"bc.score.rest_ms", "ms"},
    {"bc.work_fraction", "ratio"},
    {"bc.fine_subgraphs", "count"},
    {"bc.batch_tasks", "count"},
    {"bc.local_batch_us", "us"},
    {"bc.scores_copy_us", "us"},
    {"bc.blocks_resolved_per_write", "count"},
    {"bc.read_solve_ms.p50", "ms"},
    {"bc.read_solve_ms.p99", "ms"},
    {"sched.tasks", "count"},
    {"sched.steals", "count"},
    {"sched.idle_ms", "ms"},
    {"sched.op_1t_ms", "ms"},
    {"sched.efficiency", "ratio"},
    {"service.read_ms.p50", "ms"},
    {"service.read_ms.p99", "ms"},
    {"service.write_ms.p50", "ms"},
    {"service.write_ms.p90", "ms"},
    {"service.read_wait_ms.p50", "ms"},
    {"service.read_wait_ms.p99", "ms"},
    {"service.hit_rate", "ratio"},
    {"service.local_recomputes_per_write", "ratio"},
    {"service.full_invalidations_per_write", "ratio"},
    {"service.batch_downgrades_per_write", "ratio"},
    {"ref.brandes_s", "s"},
    {"ref.speedup", "ratio"},
    {"trace.coverage", "ratio"},
    {"process.peak_rss_mb", "MB"},
    {"process.minor_faults_per_op", "count"},
};

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *table) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

/// Shortest decimal that reads back as `value` (all of its digits).
std::string num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t lo = n / 4;
  const std::size_t hi = std::max(lo + 1, n - n / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would also carry the peak of whatever process exec'd it (run.py).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

void write_trace(std::ostream& out, const std::vector<Span>& spans) {
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << quoted(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << num(s.start * 1e6)
        << ", \"dur\": " << num((s.end - s.start) * 1e6)
        << ", \"args\": {\"op\": " << s.op
        << ", \"parent\": " << quoted(s.parent) << "}}";
  }
  out << "\n]}\n";
}

Metric& Report::slot(const std::string& name) {
  const MetricSpec* spec = find_spec(name);
  if (spec == nullptr) throw std::logic_error("unknown metric " + name);
  for (Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(Metric{name, spec->unit});
  return metrics_.back();
}

void Report::set(const std::string& name, double value) {
  Metric& m = slot(name);
  m.value = value;
  m.samples = 0;
}

void Report::set_samples(const std::string& name,
                         const std::vector<double>& samples, double scale) {
  set_quantile(name, samples, 0.5, scale);
  Metric& m = slot(name);
  m.q1 = quantile(samples, 0.25) * scale;
  m.q3 = quantile(samples, 0.75) * scale;
}

void Report::set_latency(const std::vector<double>& op, std::size_t ops, double wall) {
  set_samples("op_ms", op, 1e3);
  double sum = 0.0;
  for (const double s : op) sum += s;
  slot("op_ms").value = op.empty() ? 0.0 : sum / static_cast<double>(op.size()) * 1e3;
  if (wall > 0.0) set("ops_per_s", static_cast<double>(ops) / wall);
}

void Report::set_quantile(const std::string& name,
                          const std::vector<double>& samples, double q,
                          double scale) {
  Metric& m = slot(name);
  m.value = quantile(samples, q) * scale;
  m.samples = samples.size();
  m.q1 = m.q3 = 0.0;
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::print(std::ostream& out) const {
  out << "workload " << workload_ << " seed " << seed_ << " seconds "
      << seconds_ << (traced_ ? " traced" : " untraced") << "\n";
  for (const Metric& m : metrics_) {
    out << "  " << std::left << std::setw(38) << m.name << " " << num(m.value)
        << " " << m.unit;
    if (m.samples > 0) out << "  (n=" << m.samples << ")";
    if (m.q3 > m.q1) out << "  [q1 " << num(m.q1) << ", q3 " << num(m.q3) << "]";
    out << "\n";
  }
  for (const std::string& why : failures_) out << "  WRONG OUTPUT: " << why << "\n";
  out << "  attempted " << attempted << ", failed " << failed << "\n";

  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const auto& table = traced_ ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < table.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(table[i].name)
        << ": {\"value\": " << num(get(table[i].name))
        << ", \"unit\": " << quoted(table[i].unit) << "}";
  }
  out << "}}" << std::endl;
}

void Report::write_json(std::ostream& out) const {
  out << "{\n  \"workload\": " << quoted(workload_) << ",\n  \"seed\": " << seed_
      << ",\n  \"seconds\": " << num(seconds_)
      << ",\n  \"trace\": " << (traced_ ? 1 : 0)
      << ",\n  \"correct\": " << (correct() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(failures_[i]);
  }
  out << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "\n" : ",\n") << "    " << quoted(m.name)
        << ": {\"value\": " << num(m.value) << ", \"unit\": " << quoted(m.unit)
        << ", \"samples\": " << m.samples << ", \"q1\": " << num(m.q1)
        << ", \"q3\": " << num(m.q3) << "}";
  }
  out << "\n  }\n}\n";
}

}  // namespace ledger
