#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"

namespace mrlc {
namespace {

// ---------------------------------------------------------------- check --

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MRLC_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(MRLC_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsLogicError) {
  EXPECT_THROW(MRLC_ENSURE(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(MRLC_ENSURE(true, "fine"));
}

TEST(Check, MessagesCarryContext) {
  try {
    MRLC_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Check, InfeasibleErrorIsRuntimeError) {
  EXPECT_THROW(throw InfeasibleError("x"), std::runtime_error);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6, 7}));
  EXPECT_THROW(rng.uniform_int(7, 3), std::invalid_argument);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(12);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(14);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng base(99);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 3);
}

// ----------------------------------------------------------- statistics --

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(5);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_THROW(percentile(v, 1.5), std::invalid_argument);
}

TEST(Percentile, EdgeSizes) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 7.0);
}

TEST(Summarize, FullSummary) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(MeanOf, Basics) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  const std::vector<double> v{1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
}

// ---------------------------------------------------------------- table --

TEST(Table, AlignsColumnsAndPrintsHeader) {
  Table t({"name", "value"});
  t.begin_row().add("alpha").add(1.5, 2);
  t.begin_row().add("b").add(22LL);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.begin_row().add("x,y").add("quo\"te");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quo\"\"te\""), std::string::npos);
}

TEST(Table, RejectsMisuse) {
  Table t({"a"});
  EXPECT_THROW(t.add("no row yet"), std::invalid_argument);
  t.begin_row().add("ok");
  EXPECT_THROW(t.add("too many"), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, IncompleteRowRejectedOnNextRow) {
  Table t({"a", "b"});
  t.begin_row().add("only one");
  EXPECT_THROW(t.begin_row(), std::invalid_argument);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

}  // namespace
}  // namespace mrlc

// --------------------------------------------------------------- parallel --

#include <atomic>

#include "common/parallel.hpp"

namespace mrlc {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  default_pool().for_each(500,
                          [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingle) {
  int calls = 0;
  default_pool().for_each(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  default_pool().for_each(1, [&](int i) { EXPECT_EQ(i, 0); ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(default_pool().for_each(-1, [](int) {}), std::invalid_argument);
}

TEST(ParallelFor, SingleThreadModeIsOrdered) {
  std::vector<int> order;
  default_pool().for_each(10, [&](int i) { order.push_back(i); },
                          /*max_workers=*/1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(
      default_pool().for_each(100, [&](int i) {
        if (i == 57) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ParallelFor, ResultsMatchSequential) {
  // Deterministic per-index computation: parallel == sequential.
  std::vector<double> par(1000), seq(1000);
  auto work = [](int i) {
    Rng rng(static_cast<std::uint64_t>(i));
    return rng.uniform() + i;
  };
  default_pool().for_each(
      1000, [&](int i) { par[static_cast<std::size_t>(i)] = work(i); });
  for (int i = 0; i < 1000; ++i) seq[static_cast<std::size_t>(i)] = work(i);
  EXPECT_EQ(par, seq);
}

}  // namespace
}  // namespace mrlc
