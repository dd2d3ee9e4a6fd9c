// caveman_stream: IncrementalBc::apply_batch on caveman(1024, 24), which is
// above the parallel-decomposition size threshold. Every batch toggles 8
// vertex-disjoint non-AP chords inside one clique (delete them all, then
// re-insert them), round-robin over the cliques, so every batch is local.
// Blocks are tiny, so any O(|V| + |E|) cost per batch dominates.
#include <memory>

#include "bc/incremental.hpp"
#include "graphs.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace apgre;

constexpr std::size_t kChordsPerBatch = 8;

/// The same steps IncrementalBc::apply_batch takes on an all-local batch,
/// one public call at a time.
class ComposedStream {
 public:
  ComposedStream(const CsrGraph& g, const BcOptions& opts)
      : graph_(g), solver_(graph_),
        queries_(graph_, opts.apgre.partition.parallel_decomposition) {
    solver_.enable_contribution_tracking();
    const BcResult r = solver_.solve(opts);
    scores_ = r.scores;
  }

  /// Applies one batch; returns the summed layer seconds and the blocks
  /// re-solved (0 when the batch did not stay local).
  std::pair<double, std::size_t> apply(const UpdateRequest& batch, SpanLog& log,
                                       std::uint64_t op, LayerSamples& per_layer) {
    CoalesceResult coalesced;
    BatchClassification verdict;
    std::size_t resolved = 0;
    double layer_s = 0.0;
    const auto timed = [&](const char* span, auto&& call) {
      const double s = log.time(span, "batch", op, call);
      per_layer[std::string(span) + "_us"].push_back(s * 1e6);
      layer_s += s;
    };
    timed("graph.coalesce", [&] { coalesced = coalesce_batch(graph_, batch.ops); });
    timed("bcc.classify", [&] { verdict = queries_.classify_batch(coalesced.survivors); });
    timed("graph.apply_ops", [&] { graph_ = apply_edge_ops(graph_, coalesced.survivors); });
    timed("bcc.patch", [&] {
      for (const EdgeOp& e : coalesced.survivors) {
        queries_.apply_local_update(e.u, e.v, e.insert);
      }
    });
    timed("bc.local_batch",
          [&] { resolved = solver_.apply_local_batch(graph_, coalesced.survivors); });
    timed("bc.scores_copy", [&] {
      if (const auto* tracked = solver_.tracked_scores()) scores_ = *tracked;
    });
    return {layer_s, verdict.structural ? 0 : resolved};
  }

  const CsrGraph& graph() const { return graph_; }
  const std::vector<double>& scores() const { return scores_; }
  const Solver& solver() const { return solver_; }
  const BlockCutQueries& queries() const { return queries_; }

 private:
  CsrGraph graph_;  // a member, so the Solver's pointer stays valid
  Solver solver_;
  BlockCutQueries queries_;
  std::vector<double> scores_;
};

}  // namespace

void caveman_stream(const RunOptions& opt, Report& report, std::vector<Span>& spans) {
  const BcOptions opts;
  CsrGraph initial;
  std::vector<std::vector<Edge>> pools;
  std::unique_ptr<IncrementalBc> engine;
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    initial = caveman_graph(opt.seed, opt.scale);
    pools = local_chords(initial, kChordsPerBatch);
    engine = std::make_unique<IncrementalBc>(initial, opts);
    setup.push_back(seconds_since(start));
    clear_spans();
  }
  report.set_samples("setup_s", setup);
  if (pools.empty()) {
    report.fail("no clique yields " + std::to_string(kChordsPerBatch) + " local chords");
    return;
  }
  // Batch 2k deletes pool k's chords and batch 2k+1 re-inserts them.
  const auto batch_at = [&](std::size_t i) {
    return toggle_batch(pools[(i / 2) % pools.size()], i % 2 == 1);
  };

  // The entry call. A traced run spends half its time here, then replays
  // the same trajectory from the start through a second engine made of the
  // layer calls, built once the entry engine is gone. An insert batch's CSR
  // copies land on fresh pages or on reused ones depending on what the
  // process freed before (glibc's heap history): interleaved with the entry
  // engine, or built beside it, the composition reused its pages and ran
  // its inserts 3 ms faster than the entry call's.
  Counter& decompositions = metrics().counter("bcc.decompositions");
  const std::uint64_t entry_before = decompositions.value();
  const double faults_before = minor_faults();
  std::vector<double> latency;
  const double wall = run_for(
      opt.traced ? 0.5 * opt.seconds : opt.seconds, kMinOps, [&](std::size_t i) {
        const UpdateRequest batch = batch_at(i);
        const Clock::time_point start = Clock::now();
        try {
          engine->apply_batch(batch);
        } catch (const std::exception&) {
          ++report.failed;
        }
        latency.push_back(seconds_since(start));
        clear_spans();
        ++report.attempted;
      });
  const double ops = static_cast<double>(latency.size());
  report.set("process.minor_faults_per_op", (minor_faults() - faults_before) / ops);
  std::uint64_t decompositions_seen = decompositions.value() - entry_before;
  report.set_latency(latency, latency.size(), wall);
  report.set("process.peak_rss_mb", peak_rss_mb());

  // Exactness gates, outside every timed region: the streamed scores must
  // equal a fresh static solve of the final graph.
  check_scores(report, "apply_batch scores vs static betweenness",
               betweenness(engine->graph(), opts).scores, engine->scores());
  if (!opt.traced) return;
  engine.reset();

  ComposedStream composed(initial, opts);
  clear_spans();
  SpanLog log(Clock::now(), 0);
  std::vector<double> layer_sum;
  LayerSamples per_layer;
  double resolved = 0.0;
  const std::uint64_t before = decompositions.value();
  run_for(0.5 * opt.seconds, kMinOps, [&](std::size_t i) {
    const UpdateRequest batch = batch_at(i);
    log.time("batch", "", i, [&] {
      const auto [sum, blocks] = composed.apply(batch, log, i, per_layer);
      layer_sum.push_back(sum);
      resolved += static_cast<double>(blocks);
    });
    clear_spans();
  });
  decompositions_seen += decompositions.value() - before;

  const double batches = static_cast<double>(layer_sum.size());
  for (const auto& [name, samples] : per_layer) report.set_samples(name, samples);
  report.set("bc.blocks_resolved_per_write", resolved / batches);
  report.set("bcc.decompositions_per_op",
             static_cast<double>(decompositions_seen) / (batches + ops));
  const Decomposition* dec = composed.solver().decomposition();
  report.set("bcc.blocks", composed.queries().bcc().num_components);
  report.set("bcc.subgraphs", dec == nullptr ? 0.0 : static_cast<double>(dec->subgraphs.size()));
  report.set("bcc.top_vertices",
             dec == nullptr ? 0.0 : dec->subgraphs[dec->top_subgraph].num_vertices());
  report.set("trace.coverage", interquartile_mean(layer_sum) / interquartile_mean(latency));
  spans.insert(spans.end(), log.spans().begin(), log.spans().end());

  check_scores(report, "traced composition vs static betweenness",
               betweenness(composed.graph(), opts).scores, composed.scores());
}

}  // namespace ledger
