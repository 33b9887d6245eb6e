#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "distributed/dataplane.hpp"
#include "distributed/logical_process.hpp"
#include "helpers.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::dist {
namespace {

// ---------------------------------------------------------- parity helpers --

/// Pins the default pool width for one scope.
struct ThreadGuard {
  unsigned saved = default_thread_count();
  explicit ThreadGuard(unsigned threads) { set_default_thread_count(threads); }
  ~ThreadGuard() { set_default_thread_count(saved); }
};

/// The counters both engines must move identically, plus the DES-only
/// instruments (compared between DES runs, skipped cross-engine).
const char* const kSharedCounters[] = {
    "dataplane.rounds", "dataplane.degraded_events", "dataplane.improved_events",
    "dataplane.repairs_applied", "dataplane.detections",
    "dataplane.false_positives", "dataplane.metrics_flushes", "arq.rounds",
    "arq.transactions", "arq.data_tx", "arq.retransmissions", "arq.ack_tx",
    "arq.ack_losses", "arq.duplicates_suppressed", "arq.packets_dropped"};
const char* const kDesCounters[] = {"dataplane.events_scheduled",
                                    "dataplane.events_processed", "des.windows",
                                    "des.checkpoints"};

std::vector<long long> counter_snapshot(bool include_des) {
  std::vector<long long> values;
  for (const char* name : kSharedCounters) {
    values.push_back(metrics::counter(name).value());
  }
  if (include_des) {
    for (const char* name : kDesCounters) {
      values.push_back(metrics::counter(name).value());
    }
  }
  values.push_back(metrics::histogram("arq.attempts_per_transaction").count());
  values.push_back(metrics::histogram("arq.attempts_per_transaction").sum());
  values.push_back(metrics::histogram("dataplane.detection_lag_rounds").count());
  values.push_back(metrics::histogram("dataplane.detection_lag_rounds").sum());
  return values;
}

std::vector<long long> counter_delta(const std::vector<long long>& before,
                                     const std::vector<long long>& after) {
  std::vector<long long> delta(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) delta[i] = after[i] - before[i];
  return delta;
}

/// Bit-exact field compare; NaN == NaN (mean lag is NaN with 0 detections).
void expect_bitwise_equal(const DataPlaneResult& a, const DataPlaneResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(bits(a.delivery_ratio), bits(b.delivery_ratio));
  EXPECT_EQ(bits(a.round_success_ratio), bits(b.round_success_ratio));
  EXPECT_EQ(bits(a.avg_data_tx_per_round), bits(b.avg_data_tx_per_round));
  EXPECT_EQ(bits(a.avg_ack_tx_per_round), bits(b.avg_ack_tx_per_round));
  EXPECT_EQ(bits(a.avg_slots_per_round), bits(b.avg_slots_per_round));
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(bits(a.joules_per_reading), bits(b.joules_per_reading));
  EXPECT_EQ(bits(a.measured_lifetime_rounds), bits(b.measured_lifetime_rounds));
  EXPECT_EQ(a.degraded_events, b.degraded_events);
  EXPECT_EQ(a.improved_events, b.improved_events);
  EXPECT_EQ(a.repairs_applied, b.repairs_applied);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(bits(a.mean_detection_lag_rounds), bits(b.mean_detection_lag_rounds));
  EXPECT_EQ(a.false_positive_events, b.false_positive_events);
  EXPECT_EQ(a.missed_events, b.missed_events);
  EXPECT_EQ(bits(a.estimate_mae), bits(b.estimate_mae));
  EXPECT_EQ(bits(a.final_reliability), bits(b.final_reliability));
  EXPECT_EQ(bits(a.final_lifetime), bits(b.final_lifetime));
  EXPECT_EQ(a.bound_met, b.bound_met);
}

struct Instance {
  wsn::Network net;
  wsn::AggregationTree tree;
  double bound;
};

Instance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  wsn::Network net = mrlc::testing::small_random_network(12, 0.5, rng);
  wsn::AggregationTree tree = mrlc::testing::random_tree(net, rng);
  const double bound = 0.5 * wsn::network_lifetime(net, tree);
  return Instance{std::move(net), std::move(tree), bound};
}

DataPlaneResult run_with(const Instance& inst, const DataPlaneOptions& options) {
  return run_dataplane(inst.net, inst.tree, inst.bound, options);
}

// ------------------------------------------------------------------ parity --

/// Every repair mode x channel model x seed: the event engine and the
/// legacy serial loop must produce byte-identical results and move the
/// shared counters by the same amounts.
TEST(DesEngine, EngineParitySweep) {
  const RepairMode modes[] = {RepairMode::kNone, RepairMode::kOracle,
                              RepairMode::kEstimator};
  const bool bursty[] = {false, true};
  const std::uint64_t seeds[] = {17, 4242};
  for (const RepairMode mode : modes) {
    for (const bool burst : bursty) {
      for (const std::uint64_t seed : seeds) {
        const Instance inst = make_instance(seed);
        DataPlaneOptions options;
        options.rounds = 60;
        options.repair = mode;
        options.seed = seed * 1000 + 7;
        options.channel.model = burst ? radio::ChannelModel::kGilbertElliott
                                      : radio::ChannelModel::kBernoulli;
        const std::string label =
            "mode=" + std::to_string(static_cast<int>(mode)) +
            " burst=" + std::to_string(burst) + " seed=" + std::to_string(seed);

        options.engine = DataPlaneEngine::kLegacy;
        auto before = counter_snapshot(false);
        const DataPlaneResult legacy = run_with(inst, options);
        const auto legacy_delta =
            counter_delta(before, counter_snapshot(false));

        options.engine = DataPlaneEngine::kDes;
        before = counter_snapshot(false);
        const DataPlaneResult des = run_with(inst, options);
        const auto des_delta = counter_delta(before, counter_snapshot(false));

        expect_bitwise_equal(legacy, des, label);
        EXPECT_EQ(legacy_delta, des_delta) << label;
      }
    }
  }
}

/// The DES result must not depend on how many workers drain the shards.
TEST(DesEngine, ThreadCountInvariance) {
  for (const RepairMode mode :
       {RepairMode::kNone, RepairMode::kEstimator}) {
    const Instance inst = make_instance(91);
    DataPlaneOptions options;
    options.rounds = 48;
    options.repair = mode;
    options.engine = DataPlaneEngine::kDes;
    options.channel.model = radio::ChannelModel::kGilbertElliott;

    DataPlaneResult one, eight;
    std::vector<long long> delta_one, delta_eight;
    {
      ThreadGuard guard(1);
      auto before = counter_snapshot(true);
      one = run_with(inst, options);
      delta_one = counter_delta(before, counter_snapshot(true));
    }
    {
      ThreadGuard guard(8);
      auto before = counter_snapshot(true);
      eight = run_with(inst, options);
      delta_eight = counter_delta(before, counter_snapshot(true));
    }
    expect_bitwise_equal(one, eight,
                         "threads mode=" + std::to_string(static_cast<int>(mode)));
    EXPECT_EQ(delta_one, delta_eight);
  }
}

/// More workers than nodes leaves some shards empty; they sweep nothing
/// and the result still matches the legacy loop in every repair mode.
TEST(DesEngine, MoreWorkersThanNodes) {
  Rng rng(3);
  wsn::Network net = mrlc::testing::small_random_network(3, 1.0, rng);
  wsn::AggregationTree tree = mrlc::testing::random_tree(net, rng);
  const double bound = 0.5 * wsn::network_lifetime(net, tree);
  const Instance inst{std::move(net), std::move(tree), bound};
  ThreadGuard guard(8);
  for (const RepairMode mode :
       {RepairMode::kNone, RepairMode::kOracle, RepairMode::kEstimator}) {
    DataPlaneOptions options;
    options.rounds = 30;
    options.repair = mode;
    options.engine = DataPlaneEngine::kLegacy;
    const DataPlaneResult legacy = run_with(inst, options);
    options.engine = DataPlaneEngine::kDes;
    const DataPlaneResult des = run_with(inst, options);
    expect_bitwise_equal(
        legacy, des, "n=3 threads=8 mode=" + std::to_string(static_cast<int>(mode)));
  }
}

/// In kNone mode the window width only changes barrier cadence, not bits.
TEST(DesEngine, WindowWidthInvariance) {
  const Instance inst = make_instance(5);
  DataPlaneOptions options;
  options.rounds = 50;
  options.repair = RepairMode::kNone;
  options.engine = DataPlaneEngine::kDes;
  options.window_rounds = 1;
  const DataPlaneResult narrow = run_with(inst, options);
  options.window_rounds = 8;
  const DataPlaneResult wide = run_with(inst, options);
  options.window_rounds = 50;
  const DataPlaneResult whole = run_with(inst, options);
  expect_bitwise_equal(narrow, wide, "W=1 vs W=8");
  expect_bitwise_equal(narrow, whole, "W=1 vs W=50");
}

/// A budget that dies mid-run truncates both engines at the same round.
TEST(DesEngine, BudgetTruncationParity) {
  const Instance inst = make_instance(33);
  DataPlaneOptions options;
  options.rounds = 200;
  options.repair = RepairMode::kNone;
  options.window_rounds = 8;

  Budget legacy_budget;
  legacy_budget.set_work_limit(37);
  options.budget = &legacy_budget;
  options.engine = DataPlaneEngine::kLegacy;
  const DataPlaneResult legacy = run_with(inst, options);

  Budget des_budget;
  des_budget.set_work_limit(37);
  options.budget = &des_budget;
  options.engine = DataPlaneEngine::kDes;
  const DataPlaneResult des = run_with(inst, options);

  EXPECT_EQ(legacy.rounds, 37);
  expect_bitwise_equal(legacy, des, "budget=37");
  EXPECT_EQ(legacy_budget.used(), des_budget.used());
}

/// The periodic flush writes a parseable snapshot and counts itself.
TEST(DesEngine, MetricsFlushWritesSnapshots) {
  const Instance inst = make_instance(2);
  const std::string path = ::testing::TempDir() + "des_flush_metrics.json";
  DataPlaneOptions options;
  options.rounds = 32;
  options.repair = RepairMode::kNone;
  options.engine = DataPlaneEngine::kDes;
  options.window_rounds = 4;
  options.metrics_flush_every = 2;  // every other window -> 4 snapshots
  options.metrics_flush_path = path;

  const long long before = metrics::counter("dataplane.metrics_flushes").value();
  (void)run_with(inst, options);
  EXPECT_EQ(metrics::counter("dataplane.metrics_flushes").value() - before, 4);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"dataplane.events_processed\""), std::string::npos);
  EXPECT_NE(text.find("\"des.windows\""), std::string::npos);
  std::remove(path.c_str());
}

/// The DES instruments count the per-node round wakes exactly: once per
/// (node, round) in the fused modes and twice (churn, then transaction)
/// under oracle repair, each wake scheduling its successor, so scheduled
/// = seeds + processed.  Repair modes commit one round per window with a
/// repair checkpoint beside the commit; the safe time ends on the last
/// committed round's boundary.
TEST(DesEngine, EventAccounting) {
  const Instance inst = make_instance(8);
  const long long n = inst.net.node_count();
  for (const RepairMode mode :
       {RepairMode::kNone, RepairMode::kOracle, RepairMode::kEstimator}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    DataPlaneOptions options;
    options.rounds = 20;
    options.window_rounds = 8;
    options.repair = mode;
    options.engine = DataPlaneEngine::kDes;
    const bool none = mode == RepairMode::kNone;
    const long long wakes = mode == RepairMode::kOracle ? 2 : 1;
    const long long windows = none ? 3 : options.rounds;  // ceil(20 / 8) or 20

    auto value = [](const char* name) { return metrics::counter(name).value(); };
    const long long processed0 = value("dataplane.events_processed");
    const long long scheduled0 = value("dataplane.events_scheduled");
    const long long windows0 = value("des.windows");
    const long long checkpoints0 = value("des.checkpoints");
    (void)run_with(inst, options);

    const long long processed = value("dataplane.events_processed") - processed0;
    EXPECT_EQ(processed, wakes * n * options.rounds);
    EXPECT_EQ(value("dataplane.events_scheduled") - scheduled0,
              processed + wakes * n);
    EXPECT_EQ(value("des.windows") - windows0, windows);
    EXPECT_EQ(value("des.checkpoints") - checkpoints0, none ? windows : 2 * windows);
    EXPECT_EQ(metrics::gauge("des.safe_time").value(),
              static_cast<double>(static_cast<engine::SlotTime>(options.rounds) *
                                  engine::slots_per_round(options.arq)));
    EXPECT_EQ(metrics::gauge("des.window_rounds").value(), none ? 8.0 : 1.0);
  }
}

}  // namespace
}  // namespace mrlc::dist
