// apgre_ledger: runs one ledger workload and prints every metric by name
// with its unit; the last line of standard output is the run's result as
// one JSON object. Exit 1 when an output is wrong or an operation failed,
// 2 on a usage error.
//
//   apgre_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--scale X] [--out REPORT.json] [--trace-out TRACE.json]
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using ledger::Report;
using ledger::RunOptions;
using ledger::Span;

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Report&, std::vector<Span>&);
};

constexpr Workload kWorkloads[] = {
    {"social_solve", &ledger::social_solve},
    {"road_solve", &ledger::road_solve},
    {"tenant_serve", &ledger::tenant_serve},
    {"caveman_stream", &ledger::caveman_stream},
};

int usage(const std::string& why) {
  std::cerr << "apgre_ledger: " << why << "\n"
            << "usage: apgre_ledger --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale X] [--out FILE] [--trace-out FILE]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool write_file(const std::string& path, const auto& write) {
  std::ofstream out(path);
  write(out);
  out.close();
  return !out.fail();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  const Workload* workload = nullptr;
  std::string out_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) return usage("unknown workload " + value);
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.traced = value == "1";
    } else if (flag == "--scale") {
      opt.scale = std::strtod(value.c_str(), &end);
      if (!(opt.scale > 0.0)) return usage("--scale must be positive");
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') return usage("bad number for " + flag);
  }
  if (workload == nullptr) return usage("--workload is required");

  Report report(workload->name, opt.seed, opt.seconds, opt.traced);
  std::vector<Span> spans;
  try {
    workload->run(opt, report, spans);
  } catch (const std::exception& e) {
    std::cerr << "apgre_ledger: " << workload->name << ": " << e.what() << "\n";
    return 1;
  }
  if (!out_path.empty() &&
      !write_file(out_path, [&](std::ostream& o) { report.write_json(o); })) {
    std::cerr << "apgre_ledger: cannot write " << out_path << "\n";
    return 1;
  }
  if (!trace_path.empty() &&
      !write_file(trace_path, [&](std::ostream& o) { ledger::write_trace(o, spans); })) {
    std::cerr << "apgre_ledger: cannot write " << trace_path << "\n";
    return 1;
  }
  report.print(std::cout);
  return report.correct() && report.failed == 0 ? 0 : 1;
}
