/// \file metrics_test.cpp
/// \brief Unit tests for the observability layer (common/metrics.hpp,
/// common/trace.hpp): concurrency, histogram accuracy, JSON shape, the
/// runtime kill switch, and phase nesting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace mrlc {
namespace {

/// Every test runs against the same process-wide registry; reset first and
/// force-enable so test order and the MRLC_METRICS env var don't matter.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset();
  }
};

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  metrics::Counter& c = metrics::counter("test.counter_basic");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(MetricsTest, CounterReferenceIsStable) {
  metrics::Counter& a = metrics::counter("test.counter_stable");
  // Registering many other instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    metrics::counter("test.counter_stable_filler_" + std::to_string(i));
  }
  metrics::Counter& b = metrics::counter("test.counter_stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(MetricsTest, ConcurrentIncrementsAreLossless) {
  metrics::Counter& c = metrics::counter("test.counter_concurrent");
  metrics::Histogram& h = metrics::histogram("test.hist_concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(i % 128);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<long long>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  metrics::Gauge& g = metrics::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(MetricsTest, HistogramExactForSmallValues) {
  metrics::Histogram& h = metrics::histogram("test.hist_small");
  for (long long v = 0; v < metrics::Histogram::kSubBuckets; ++v) h.record(v);
  // Values below kSubBuckets occupy exact unit buckets: every percentile
  // must be the exact sample.
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), metrics::Histogram::kSubBuckets - 1);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(1.0), metrics::Histogram::kSubBuckets - 1);
  EXPECT_EQ(h.sum(), metrics::Histogram::kSubBuckets *
                         (metrics::Histogram::kSubBuckets - 1) / 2);
}

TEST_F(MetricsTest, HistogramPercentilesWithinRelativeError) {
  metrics::Histogram& h = metrics::histogram("test.hist_pct");
  constexpr long long kN = 10'000;
  for (long long v = 1; v <= kN; ++v) h.record(v);
  const double tolerance =
      1.0 / static_cast<double>(metrics::Histogram::kSubBuckets);
  for (const double p : {0.50, 0.90, 0.99}) {
    const auto expected = static_cast<double>(
        static_cast<long long>(std::ceil(p * static_cast<double>(kN))));
    const auto got = static_cast<double>(h.percentile(p));
    EXPECT_NEAR(got, expected, expected * tolerance)
        << "p=" << p << " expected~" << expected << " got " << got;
  }
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), kN);
  EXPECT_NEAR(h.mean(), static_cast<double>(kN + 1) / 2.0, 1e-9);
}

TEST_F(MetricsTest, HistogramClampsNegativeSamples) {
  metrics::Histogram& h = metrics::histogram("test.hist_negative");
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST_F(MetricsTest, DisabledInstrumentsAreNoOps) {
  metrics::Counter& c = metrics::counter("test.disabled_counter");
  metrics::Gauge& g = metrics::gauge("test.disabled_gauge");
  metrics::Histogram& h = metrics::histogram("test.disabled_hist");
  metrics::set_enabled(false);
  c.add(7);
  g.set(3.0);
  h.record(9);
  {
    trace::ScopedPhase phase("test_disabled_phase");
  }
  metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(metrics::to_json_string().find("test_disabled_phase"),
            std::string::npos);
}

TEST_F(MetricsTest, ScopedPhasesNestIntoPaths) {
  {
    trace::ScopedPhase outer("test_outer");
    {
      trace::ScopedPhase inner("test_inner");
    }
    {
      trace::ScopedPhase inner("test_inner");  // same node, count -> 2
    }
  }
  const std::string json = metrics::to_json_string();
  EXPECT_NE(json.find("\"path\": \"test_outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\": \"test_outer/test_inner\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
}

TEST_F(MetricsTest, JsonIsWellFormedAndRoundTrips) {
  metrics::counter("test.json_counter").add(3);
  metrics::gauge("test.json_gauge").set(0.5);
  metrics::histogram("test.json_hist").record(12);
  {
    trace::ScopedPhase phase("test_json_phase");
  }
  const std::string json = metrics::to_json_string();

  // Structural spot checks (a real parse happens in the CLI golden test,
  // which runs the output through python's json module).
  EXPECT_NE(json.find("\"schema\": \"mrlc-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_phase\""), std::string::npos);

  // Balanced braces/brackets outside of strings — cheap well-formedness.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
    } else if (ch == '"') {
      in_string = !in_string;
    } else if (!in_string && (ch == '{' || ch == '[')) {
      ++depth;
    } else if (!in_string && (ch == '}' || ch == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Emission is idempotent: reading the registry does not mutate it.
  EXPECT_EQ(json, metrics::to_json_string());
}

TEST_F(MetricsTest, ZeroTimesModeZeroesPhaseWallTime) {
  {
    trace::ScopedPhase phase("test_zero_times");
  }
  const std::string json = metrics::to_json_string(/*zero_times=*/true);
  const std::size_t at = json.find("\"test_zero_times\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"total_ms\": 0,", at), std::string::npos) << json;
}

TEST_F(MetricsTest, ResetClearsEverything) {
  metrics::counter("test.reset_counter").add(5);
  metrics::histogram("test.reset_hist").record(100);
  {
    trace::ScopedPhase phase("test_reset_phase");
  }
  metrics::reset();
  EXPECT_EQ(metrics::counter("test.reset_counter").value(), 0);
  EXPECT_EQ(metrics::histogram("test.reset_hist").count(), 0);
  // The phase node stays registered but its accumulators are zeroed.
  const std::string json = metrics::to_json_string();
  const std::size_t at = json.find("\"test_reset_phase\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"count\": 0", at), std::string::npos);
}

TEST_F(MetricsTest, ParallelForPhasesDoNotCorruptCursor) {
  // Phases opened on worker threads must not leak into each other: the
  // cursor is thread-local, so each worker builds its own path from root.
  std::atomic<int> entered{0};
  default_pool().for_each(64, [&](int) {
    trace::ScopedPhase phase("test_parallel_phase");
    entered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(entered.load(), 64);
  const std::string json = metrics::to_json_string();
  EXPECT_NE(json.find("\"path\": \"test_parallel_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 64"), std::string::npos) << json;
}

// ------------------------------------------------- sharded-slot behavior --
//
// Counters and histograms spread writers over per-thread cacheline-aligned
// shards and merge on read (docs/metrics.md "Shard-merge semantics").  The
// tests below pin down the merge contract: nothing lost, nothing double
// counted, and a mid-flight snapshot always covers every finished sample.

TEST_F(MetricsTest, ShardedCounterMergesMixedSignDeltasExactly) {
  metrics::Counter& c = metrics::counter("test.counter_sharded_mixed");
  constexpr int kThreads = 12;  // deliberately more threads than shards
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(3);
        c.add(-1);  // reconciliation-style negative delta
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kPerThread * 2);
}

TEST_F(MetricsTest, ConcurrentHistogramEqualsSerialHistogramOfSameSamples) {
  metrics::Histogram& concurrent = metrics::histogram("test.hist_shard_conc");
  metrics::Histogram& serial = metrics::histogram("test.hist_shard_serial");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4'000;
  // Same multiset of samples either way: thread t records f(t, i), the
  // serial loop records every f(t, i) on one thread.
  const auto sample = [](int t, int i) {
    return static_cast<long long>((i * 37 + t * 101) % 5000);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&concurrent, t, &sample] {
      for (int i = 0; i < kPerThread; ++i) concurrent.record(sample(t, i));
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial.record(sample(t, i));
  }

  EXPECT_EQ(concurrent.count(), serial.count());
  EXPECT_EQ(concurrent.sum(), serial.sum());
  EXPECT_EQ(concurrent.min(), serial.min());
  EXPECT_EQ(concurrent.max(), serial.max());
  EXPECT_DOUBLE_EQ(concurrent.mean(), serial.mean());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(concurrent.percentile(p), serial.percentile(p)) << "p=" << p;
  }
}

TEST_F(MetricsTest, SnapshotDuringRecordingNeverLosesAFinishedSample) {
  metrics::Histogram& h = metrics::histogram("test.hist_snapshot_race");
  metrics::Counter& c = metrics::counter("test.counter_snapshot_race");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  constexpr long long kTotal = static_cast<long long>(kThreads) * kPerThread;
  // Recorders publish how many samples they have *finished* recording; the
  // observer first acquires that figure, then snapshots.  Every published
  // sample happened-before the snapshot, so the merged reads must cover at
  // least that many — and can never exceed the grand total.
  std::atomic<long long> published{0};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(i & 1023);
        c.add();
        published.fetch_add(1, std::memory_order_release);
      }
    });
  }

  long long last_hist = 0;
  long long last_counter = 0;
  while (published.load(std::memory_order_acquire) < kTotal) {
    const long long floor = published.load(std::memory_order_acquire);
    const long long hist_count = h.count();
    const long long counter_value = c.value();
    ASSERT_GE(hist_count, floor) << "snapshot lost a finished record()";
    ASSERT_GE(counter_value, floor) << "snapshot lost a finished add()";
    ASSERT_LE(hist_count, kTotal) << "snapshot double-counted a record()";
    ASSERT_LE(counter_value, kTotal) << "snapshot double-counted an add()";
    // Merged snapshots are monotone while recording only moves forward.
    ASSERT_GE(hist_count, last_hist);
    ASSERT_GE(counter_value, last_counter);
    last_hist = hist_count;
    last_counter = counter_value;
  }
  for (std::thread& thread : recorders) thread.join();
  long long expected_sum = 0;
  for (int i = 0; i < kPerThread; ++i) expected_sum += i & 1023;
  EXPECT_EQ(h.count(), kTotal);
  EXPECT_EQ(h.sum(), expected_sum * kThreads);
  EXPECT_EQ(c.value(), kTotal);
}

}  // namespace
}  // namespace mrlc
