// social_solve and road_solve: cold betweenness(g) calls at default
// options on one graph. The social analogue is AP-rich and made of many
// blocks, so redundancy elimination and the scheduler's coarse tasks do the
// work; the road analogue is one giant high-diameter block, so the scoring
// kernel does nearly all of it and decompose/reach almost none.
#include <thread>

#include "bc/bc.hpp"
#include "bcc/reach.hpp"
#include "graphs.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace apgre;

using GraphMaker = CsrGraph (*)(std::uint64_t seed, double scale);

/// One solve composed of the layer calls betweenness(g) makes at default
/// options, each timed as a span; returns the summed layer seconds.
double composed_solve(const CsrGraph& g, SpanLog& log, std::uint64_t op,
                      Report& report, std::vector<double>& scores,
                      LayerSamples& per_layer) {
  const BcOptions opts;
  PartitionOptions key = opts.apgre.partition;
  key.compute_reach = false;
  Decomposition dec;
  ApgreStats stats;
  double layer_s = 0.0;
  const auto timed = [&](const char* span, auto&& call) {
    const double s = log.time(span, "solve", op, call);
    per_layer[std::string(span) + "_ms"].push_back(s * 1e3);
    layer_s += s;
  };
  timed("bcc.decompose", [&] { dec = decompose(g, key); });
  timed("bcc.reach", [&] { compute_reach_counts(g, dec, key.reach); });
  timed("bc.score", [&] {
    scores = apgre_bc_with_decomposition(g, dec, opts.apgre, &stats, opts.scheduler);
  });
  per_layer["bc.score.top_ms"].push_back(stats.top_bc_seconds * 1e3);
  per_layer["bc.score.rest_ms"].push_back(stats.rest_bc_seconds * 1e3);
  per_layer["sched.tasks"].push_back(static_cast<double>(stats.sched_tasks));
  per_layer["sched.steals"].push_back(static_cast<double>(stats.sched_steals));
  per_layer["sched.idle_ms"].push_back(stats.sched_idle_seconds * 1e3);

  // Shape of the decomposition: the same on every solve of one graph.
  const Decomposition::WorkModel work = dec.work_model(g.num_arcs());
  report.set("bcc.blocks", dec.num_blocks);
  report.set("bcc.subgraphs", static_cast<double>(dec.subgraphs.size()));
  report.set("bcc.top_vertices",
             dec.subgraphs.empty() ? 0.0 : dec.subgraphs[dec.top_subgraph].num_vertices());
  report.set("bc.work_fraction", work.brandes > 0.0 ? work.apgre / work.brandes : 0.0);
  report.set("bc.fine_subgraphs", static_cast<double>(stats.num_fine_subgraphs));
  report.set("bc.batch_tasks", static_cast<double>(stats.num_batch_tasks));
  return layer_s;
}

void run_static(GraphMaker make, const RunOptions& opt, Report& report,
                std::vector<Span>& spans) {
  // Set-up: input generation plus the warm-up solve, which also starts the
  // shared scheduler pool.
  CsrGraph g;
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    g = make(opt.seed, opt.scale);
    const BcResult warm = betweenness(g);
    setup.push_back(seconds_since(start));
    clear_spans();
    if (!warm.status.ok()) report.fail("warm-up solve: " + warm.status.message);
  }
  report.set_samples("setup_s", setup);

  const auto entry_solve = [&](const BcOptions& opts, std::vector<double>& latency,
                               BcResult& last) {
    const Clock::time_point start = Clock::now();
    BcResult r = betweenness(g, opts);
    latency.push_back(seconds_since(start));
    clear_spans();
    ++report.attempted;
    if (r.status.ok()) {
      last = std::move(r);
    } else {
      ++report.failed;
    }
  };

  // The one entry call, cold every time. A traced run alternates it with the
  // composed solve, so both see the same machine state.
  std::vector<double> latency;
  BcResult entry;
  std::vector<double> composed;
  std::vector<double> layer_sum;
  LayerSamples per_layer;
  SpanLog log(Clock::now(), 0);
  Counter& decompositions = metrics().counter("bcc.decompositions");
  const std::uint64_t decompositions_before = decompositions.value();
  const double faults_before = minor_faults();
  const double wall = run_for(
      opt.traced ? 0.7 * opt.seconds : opt.seconds, opt.traced ? 2 * kMinOps : kMinOps,
      [&](std::size_t i) {
        if (!opt.traced || i % 2 == 0) {
          entry_solve(BcOptions{}, latency, entry);
          return;
        }
        log.time("solve", "", i, [&] {
          layer_sum.push_back(composed_solve(g, log, i, report, composed, per_layer));
        });
        clear_spans();
      });
  // A traced run's wall clock also covers the composed operations.
  report.set_latency(latency, latency.size(), opt.traced ? 0.0 : wall);
  report.set("process.peak_rss_mb", peak_rss_mb());
  report.set("process.minor_faults_per_op",
             (minor_faults() - faults_before) /
                 static_cast<double>(latency.size() + layer_sum.size()));
  const double op_s = interquartile_mean(latency);

  if (opt.traced) {
    for (const auto& [name, samples] : per_layer) report.set_samples(name, samples);
    report.set("bcc.decompositions_per_op",
               static_cast<double>(decompositions.value() - decompositions_before) /
                   static_cast<double>(latency.size() + layer_sum.size()));
    report.set("trace.coverage", interquartile_mean(layer_sum) / op_s);
    spans.insert(spans.end(), log.spans().begin(), log.spans().end());

    // One thread: BcOptions::threads alone leaves the shared scheduler pool
    // at machine size, so both budgets are pinned.
    BcOptions one;
    one.threads = 1;
    one.scheduler.threads = 1;
    std::vector<double> latency_1t;
    BcResult serial_run;
    run_for(0.3 * opt.seconds, kMinOps,
            [&](std::size_t) { entry_solve(one, latency_1t, serial_run); });
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    report.set_samples("sched.op_1t_ms", latency_1t, 1e3);
    report.set("sched.efficiency", interquartile_mean(latency_1t) / (cores * op_s));
    check_scores(report, "one-thread solve vs default solve", entry.scores,
                 serial_run.scores);
  }

  // Exactness gates, outside every timed region. Serial Brandes is the
  // reference and, in traced runs, the paper's Table-2 baseline.
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const Clock::time_point start = Clock::now();
  const BcResult reference = betweenness(g, serial);
  const double brandes_s = seconds_since(start);
  check_scores(report, "betweenness(g) vs serial Brandes", reference.scores,
               entry.scores);
  if (opt.traced) {
    check_scores(report, "traced composition vs betweenness(g)", entry.scores,
                 composed);
    report.set("ref.brandes_s", brandes_s);
    report.set("ref.speedup", brandes_s / op_s);
  }
}

}  // namespace

void social_solve(const RunOptions& opt, Report& report, std::vector<Span>& spans) {
  run_static(&social_graph, opt, report, spans);
}

void road_solve(const RunOptions& opt, Report& report, std::vector<Span>& spans) {
  run_static(&road_graph, opt, report, spans);
}

}  // namespace ledger
