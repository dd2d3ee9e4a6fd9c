// Tests for the observability layer: tracing spans (support/trace.hpp),
// the metrics registry (support/metrics.hpp) and the kernels reporting
// into it, and the JSON value (support/json.hpp) apgre_serve speaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "graph/generators.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace apgre {
namespace {

// ---- Tracing spans -------------------------------------------------------
//
// Content assertions only run when tracing is compiled in; with
// APGRE_TRACE=OFF collect_spans() must simply return nothing.

TEST(TraceTest, DisabledBuildCollectsNothing) {
  clear_spans();
  { APGRE_TRACE_SPAN("trace_test/any"); }
  if (!trace_enabled()) {
    EXPECT_TRUE(collect_spans().empty());
  }
}

TEST(TraceTest, RecordsNestedSpansWithDepthAndOrder) {
  if (!trace_enabled()) GTEST_SKIP() << "tracing compiled out";
  clear_spans();
  {
    APGRE_TRACE_SPAN("trace_test/outer");
    { APGRE_TRACE_SPAN("trace_test/inner_a"); }
    { APGRE_TRACE_SPAN("trace_test/inner_b"); }
  }
  const std::vector<SpanRecord> spans = collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  // collect_spans() orders by start time: outer opened first.
  EXPECT_EQ(spans[0].name, "trace_test/outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "trace_test/inner_a");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "trace_test/inner_b");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_LT(spans[1].sequence, spans[2].sequence);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.elapsed_seconds(), 0.0);
    // Inner spans close before the outer one.
    EXPECT_LE(s.end_seconds, spans[0].end_seconds + 1e-12);
  }
}

TEST(TraceTest, CollectDrainsTheBuffers) {
  if (!trace_enabled()) GTEST_SKIP() << "tracing compiled out";
  clear_spans();
  { APGRE_TRACE_SPAN("trace_test/drained"); }
  EXPECT_EQ(collect_spans().size(), 1u);
  EXPECT_TRUE(collect_spans().empty());
}

TEST(TraceTest, ConcurrentWritersAllSurface) {
  if (!trace_enabled()) GTEST_SKIP() << "tracing compiled out";
  clear_spans();
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansEach; ++i) {
        APGRE_TRACE_SPAN("trace_test/worker_" + std::to_string(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<SpanRecord> spans = collect_spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kSpansEach));
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_seconds < b.start_seconds;
      }));
  // Per-thread sequences must be gapless even though threads interleave.
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "trace_test/worker_" + std::to_string(t);
    std::vector<std::uint64_t> seqs;
    for (const SpanRecord& s : spans) {
      if (s.name == name) seqs.push_back(s.sequence);
    }
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kSpansEach)) << name;
    std::sort(seqs.begin(), seqs.end());
    for (int i = 0; i < kSpansEach; ++i) {
      EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
    }
  }
}

TEST(TraceTest, SpansFromExitedThreadsSurvive) {
  if (!trace_enabled()) GTEST_SKIP() << "tracing compiled out";
  clear_spans();
  std::thread([] { APGRE_TRACE_SPAN("trace_test/short_lived"); }).join();
  const std::vector<SpanRecord> spans = collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "trace_test/short_lived");
}

// ---- Metrics registry ----------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.hits");
  constexpr int kThreads = 4;
  constexpr int kAddsEach = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsEach; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kAddsEach));
}

TEST(MetricsTest, FindOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.stable");
  registry.counter("test.other").add(5);
  Counter& b = registry.counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("test.kind");
  EXPECT_THROW(registry.gauge("test.kind"), Error);
  EXPECT_THROW(registry.histogram("test.kind"), Error);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.reset");
  Gauge& g = registry.gauge("test.gauge");
  Histogram& h = registry.histogram("test.hist");
  c.add(7);
  g.set(3.5);
  h.observe(16);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  // The same references stay live after reset.
  EXPECT_EQ(&c, &registry.counter("test.reset"));
  EXPECT_EQ(registry.snapshot().size(), 3u);
}

TEST(MetricsTest, GaugeAddAccumulatesConcurrently) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.sum");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * 1000 * 0.5);
}

TEST(MetricsTest, HistogramBucketsFollowLog2Convention) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.log2");
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  const auto buckets = h.buckets();
  // Bucket 0 holds {0, 1}; bucket lower-bound 2 holds {2, 3}; 1024 alone.
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
  EXPECT_EQ(buckets[1], (std::pair<std::uint64_t, std::uint64_t>{2, 2}));
  EXPECT_EQ(buckets[2], (std::pair<std::uint64_t, std::uint64_t>{1024, 1}));
}

TEST(MetricsTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.gauge("test.b").set(2.0);
  registry.counter("test.a").add(1);
  registry.histogram("test.c").observe(4);
  const std::vector<MetricSample> snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "test.a");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap[0].number, 1.0);
  EXPECT_EQ(snap[1].name, "test.b");
  EXPECT_EQ(snap[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[2].name, "test.c");
  EXPECT_EQ(snap[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[2].histogram_sum, 4u);
}

TEST(MetricsTest, GlobalRegistryIsProcessWide) {
  metrics().counter("test.global.probe").add(3);
  EXPECT_GE(MetricsRegistry::global().counter("test.global.probe").value(), 3u);
  metrics().counter("test.global.probe").reset();
}

// Solves report into the process registry under their kernel's prefix.
// APGRE peels a tree down to an empty core and scores it in closed form,
// so on the tree the peel reports instead of the kernel.
TEST(MetricsTest, KernelsReportIntoTheRegistry) {
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  BcOptions apgre;
  apgre.algorithm = Algorithm::kApgre;
  for (const CorpusCase& c : graph_corpus(1, /*tiny=*/true)) {
    SCOPED_TRACE(c.name);
    metrics().reset();
    ASSERT_TRUE(betweenness(c.graph, serial).status.ok());
    EXPECT_GT(metrics().counter("bc.serial.traversed_arcs").value(), 0u);

    metrics().reset();
    ASSERT_TRUE(betweenness(c.graph, apgre).status.ok());
    EXPECT_GT(metrics()
                  .counter(c.name == "tree" ? "graph.peel.peeled_vertices"
                                            : "bc.apgre.traversed_arcs")
                  .value(),
              0u);
  }
}

// The tally counts the arcs the sweep scans. From any root of K_n every
// vertex is queued once the root's n - 1 arcs are scanned, and the rest
// sit on the deepest level, so the sweep scans nothing more.
TEST(MetricsTest, SerialSweepTalliesOnlyTheArcsItScans) {
  constexpr Vertex n = 24;
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  Counter& traversed = metrics().counter("bc.serial.traversed_arcs");
  const std::uint64_t before = traversed.value();
  ASSERT_TRUE(betweenness(complete(n), serial).status.ok());
  EXPECT_EQ(traversed.value() - before, std::uint64_t{n} * (n - 1));
}

// ---- JSON value ----------------------------------------------------------

TEST(JsonTest, RoundTripsDocuments) {
  JsonValue doc;
  doc["schema_version"] = JsonValue(std::int64_t{1});
  doc["name"] = JsonValue("bench \"quoted\" \\ name\n");
  doc["ok"] = JsonValue(true);
  doc["nothing"] = JsonValue(nullptr);
  doc["seconds"] = JsonValue(0.0315);
  doc["values"].push_back(JsonValue(std::int64_t{1}));
  doc["values"].push_back(JsonValue(2.5));

  const JsonValue parsed = JsonValue::parse(doc.dump());
  EXPECT_EQ(parsed.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(parsed.at("name").as_string(), "bench \"quoted\" \\ name\n");
  EXPECT_TRUE(parsed.at("ok").as_bool());
  EXPECT_TRUE(parsed.at("nothing").is_null());
  EXPECT_DOUBLE_EQ(parsed.at("seconds").as_double(), 0.0315);
  ASSERT_EQ(parsed.at("values").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("values").as_array()[1].as_double(), 2.5);
  // Deterministic serialisation: dump(parse(dump)) is a fixed point.
  EXPECT_EQ(doc.dump(), parsed.dump());
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  const JsonValue v = JsonValue::parse(R"({"s": "a\tbé"})");
  EXPECT_EQ(v.at("s").as_string(), "a\tb\xc3\xa9");
  const JsonValue u = JsonValue::parse("{\"s\": \"\\u00e9A\"}");
  EXPECT_EQ(u.at("s").as_string(), "\xc3\xa9"  "A");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("not json"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1,}"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": Infinity}"), Error);
}

TEST(JsonTest, AccessorsThrowOnKindMismatch) {
  const JsonValue v = JsonValue::parse("{\"n\": 4}");
  EXPECT_THROW(v.at("n").as_string(), Error);
  EXPECT_THROW(v.at("missing"), Error);
}

TEST(JsonTest, IntegersSerializeWithoutExponent) {
  JsonValue doc;
  doc["arcs"] = JsonValue(std::uint64_t{123456789});
  EXPECT_NE(doc.dump().find("123456789"), std::string::npos);
  EXPECT_EQ(doc.dump().find("e+"), std::string::npos);
}

}  // namespace
}  // namespace apgre
