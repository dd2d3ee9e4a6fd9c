#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace apgre {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Xoshiro256, BoundedOneAlwaysZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
}

TEST(HashCombine, MixesBothArguments) {
  EXPECT_NE(hash_combine64(1, 2), hash_combine64(2, 1));
  EXPECT_NE(hash_combine64(1, 2), hash_combine64(1, 3));
  EXPECT_EQ(hash_combine64(5, 9), hash_combine64(5, 9));
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
}

TEST(RunningStats, MergeMatchesSequentialAccumulation) {
  const std::vector<double> samples = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0,
                                       -1.0, 0.25, 13.5};
  for (std::size_t split = 0; split <= samples.size(); ++split) {
    RunningStats left;
    RunningStats right;
    RunningStats reference;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (i < split ? left : right).add(samples[i]);
      reference.add(samples[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), reference.count()) << "split " << split;
    EXPECT_NEAR(left.mean(), reference.mean(), 1e-12) << "split " << split;
    EXPECT_NEAR(left.variance(), reference.variance(), 1e-12) << "split " << split;
    EXPECT_DOUBLE_EQ(left.sum(), reference.sum()) << "split " << split;
    EXPECT_DOUBLE_EQ(left.min(), reference.min()) << "split " << split;
    EXPECT_DOUBLE_EQ(left.max(), reference.max()) << "split " << split;
  }
}

TEST(RunningStats, MergeWithEmptySidesIsIdentity) {
  RunningStats filled;
  filled.add(1.0);
  filled.add(3.0);

  RunningStats empty;
  filled.merge(empty);  // empty right side: no-op
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_DOUBLE_EQ(filled.mean(), 2.0);

  RunningStats target;
  target.merge(filled);  // empty left side: copies the other accumulator
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 3.0);
  EXPECT_NEAR(target.variance(), filled.variance(), 1e-15);

  RunningStats a;
  RunningStats b;
  a.merge(b);  // both empty
  EXPECT_EQ(a.count(), 0u);
}

TEST(Log2Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1000);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));  // 0 and 1
  EXPECT_EQ(buckets[1], (std::pair<std::uint64_t, std::uint64_t>{2, 2}));  // 2, 3
  EXPECT_EQ(buckets[2], (std::pair<std::uint64_t, std::uint64_t>{4, 1}));
  EXPECT_EQ(buckets[3], (std::pair<std::uint64_t, std::uint64_t>{512, 1}));
  EXPECT_EQ(h.total(), 6u);
}

TEST(GeometricMean, MatchesClosedForm) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.millis(), 5.0);
  t.reset();
  EXPECT_LT(t.millis(), 5.0);
}

TEST(ScopedTimer, AccumulatesIntoSink) {
  double sink = 0.0;
  {
    ScopedTimer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double first = sink;
  EXPECT_GT(first, 0.0);
  {
    ScopedTimer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(sink, first);
}

TEST(ErrorMacros, AssertThrowsLogicError) {
  EXPECT_NO_THROW(APGRE_ASSERT(1 + 1 == 2));
  EXPECT_THROW(APGRE_ASSERT(1 + 1 == 3), std::logic_error);
  EXPECT_THROW(APGRE_ASSERT_MSG(false, "boom"), std::logic_error);
}

TEST(ErrorMacros, RequireThrowsApgreError) {
  EXPECT_NO_THROW(APGRE_REQUIRE(true, "fine"));
  EXPECT_THROW(APGRE_REQUIRE(false, "bad input"), Error);
}

TEST(ParseError, FormatsLocation) {
  try {
    throw ParseError("graph.txt", 12, "bad edge");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "graph.txt:12: bad edge");
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Graph", "Time", "MTEPS"});
  t.row().cell("enron").cell(1.5).cell(std::uint64_t{291});
  t.row().cell("wiki").dash().cell(std::uint64_t{2437});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Graph"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("-"), std::string::npos);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| Graph"), std::string::npos);
}

TEST(Table, CellBeforeRowIsAnError) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), std::logic_error);
}

TEST(JsonTest, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const JsonValue deepest = JsonValue::parse(nested(JsonValue::kMaxDepth));
  EXPECT_TRUE(deepest.is_array());
  EXPECT_THROW(JsonValue::parse(nested(JsonValue::kMaxDepth + 1)), ParseError);

  // Objects count as levels too, and so does a mix of both.
  std::string objects;
  for (int i = 0; i < JsonValue::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(JsonValue::kMaxDepth, '}');
  EXPECT_NO_THROW(JsonValue::parse(objects));
  EXPECT_THROW(JsonValue::parse("[" + objects + "]"), ParseError);

  // Far past the bound fails the same way instead of exhausting the stack.
  EXPECT_THROW(JsonValue::parse(nested(100000)), ParseError);
}

}  // namespace
}  // namespace apgre
