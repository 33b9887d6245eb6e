#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
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

/// The counters every run's golden digest pins, plus the sweep
/// instruments (compared across thread counts, and counted exactly by
/// `EventAccounting`).
const char* const kSharedCounters[] = {
    "dataplane.rounds", "dataplane.degraded_events", "dataplane.improved_events",
    "dataplane.repairs_applied", "dataplane.detections",
    "dataplane.false_positives", "dataplane.metrics_flushes", "arq.rounds",
    "arq.transactions", "arq.data_tx", "arq.retransmissions", "arq.ack_tx",
    "arq.ack_losses", "arq.duplicates_suppressed", "arq.packets_dropped"};
const char* const kDesCounters[] = {"dataplane.events_scheduled",
                                    "dataplane.events_processed", "des.windows",
                                    "des.checkpoints"};
/// Names of the four histogram values `counter_snapshot` appends.
const char* const kHistogramSums[] = {
    "arq.attempts_per_transaction.count", "arq.attempts_per_transaction.sum",
    "dataplane.detection_lag_rounds.count", "dataplane.detection_lag_rounds.sum"};

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

// ----------------------------------------------------------------- digests --

/// One run's golden digest: every DataPlaneResult field (doubles as their
/// IEEE-754 bit patterns in hex) followed by the counter/histogram deltas
/// of `counter_snapshot`, as space-separated name=value tokens.
std::vector<std::string> digest(const DataPlaneResult& r,
                                const std::vector<long long>& counters) {
  std::vector<std::string> tokens;
  auto num = [&](const char* name, long long x) {
    tokens.push_back(std::string(name) + "=" + std::to_string(x));
  };
  auto bits = [&](const char* name, double x) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
    tokens.push_back(std::string(name) + "=" + hex);
  };
  num("rounds", r.rounds);
  bits("delivery_ratio", r.delivery_ratio);
  bits("round_success_ratio", r.round_success_ratio);
  bits("avg_data_tx_per_round", r.avg_data_tx_per_round);
  bits("avg_ack_tx_per_round", r.avg_ack_tx_per_round);
  bits("avg_slots_per_round", r.avg_slots_per_round);
  num("duplicates_suppressed", r.duplicates_suppressed);
  num("packets_dropped", r.packets_dropped);
  bits("joules_per_reading", r.joules_per_reading);
  bits("measured_lifetime_rounds", r.measured_lifetime_rounds);
  num("degraded_events", r.degraded_events);
  num("improved_events", r.improved_events);
  num("repairs_applied", r.repairs_applied);
  num("detections", r.detections);
  bits("mean_detection_lag_rounds", r.mean_detection_lag_rounds);
  num("false_positive_events", r.false_positive_events);
  num("missed_events", r.missed_events);
  bits("estimate_mae", r.estimate_mae);
  bits("final_reliability", r.final_reliability);
  bits("final_lifetime", r.final_lifetime);
  num("bound_met", r.bound_met ? 1 : 0);
  std::size_t i = 0;
  for (const char* name : kSharedCounters) num(name, counters[i++]);
  for (const char* name : kHistogramSums) num(name, counters[i++]);
  return tokens;
}

/// The committed golden digests (tests/data/dataplane_goldens.txt), keyed
/// by case label.  They were captured from the serial round loop that the
/// sharded sweep replaced, so they pin today's engine to that reference.
const std::map<std::string, std::vector<std::string>>& goldens() {
  static const std::map<std::string, std::vector<std::string>> table = [] {
    std::map<std::string, std::vector<std::string>> out;
    std::ifstream in(MRLC_DATAPLANE_GOLDENS);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string label, token;
      fields >> label;
      while (fields >> token) out[label].push_back(token);
    }
    return out;
  }();
  return table;
}

/// Runs `options` on `inst` at 1 and at 8 threads and compares each
/// run's digest (plus `Budget::used()` when `budget_limit` >= 0) with the
/// golden line `label`, token by token.
void expect_golden(const std::string& label, const Instance& inst,
                   DataPlaneOptions options, long long budget_limit = -1) {
  const auto found = goldens().find(label);
  ASSERT_NE(found, goldens().end()) << "no golden digest for " << label;
  const std::vector<std::string>& golden = found->second;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    Budget budget;
    if (budget_limit >= 0) {
      budget.set_work_limit(budget_limit);
      options.budget = &budget;
    }
    const auto before = counter_snapshot(false);
    const DataPlaneResult result = run_with(inst, options);
    std::vector<std::string> tokens =
        digest(result, counter_delta(before, counter_snapshot(false)));
    if (budget_limit >= 0) {
      tokens.push_back("budget.used=" + std::to_string(budget.used()));
    }
    options.budget = nullptr;
    ASSERT_EQ(tokens.size(), golden.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(tokens[i], golden[i]);
    }
  }
}

// ------------------------------------------------------------------ golden --

/// Every repair mode x channel model x seed matches its golden digest —
/// result bits and counter deltas — at 1 and at 8 threads.
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
        expect_golden("EngineParitySweep/mode=" +
                          std::to_string(static_cast<int>(mode)) +
                          "/burst=" + std::to_string(burst) +
                          "/seed=" + std::to_string(seed),
                      inst, options);
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
/// and the result still matches its golden digest in every repair mode.
TEST(DesEngine, MoreWorkersThanNodes) {
  Rng rng(3);
  wsn::Network net = mrlc::testing::small_random_network(3, 1.0, rng);
  wsn::AggregationTree tree = mrlc::testing::random_tree(net, rng);
  const double bound = 0.5 * wsn::network_lifetime(net, tree);
  const Instance inst{std::move(net), std::move(tree), bound};
  for (const RepairMode mode :
       {RepairMode::kNone, RepairMode::kOracle, RepairMode::kEstimator}) {
    DataPlaneOptions options;
    options.rounds = 30;
    options.repair = mode;
    expect_golden("MoreWorkersThanNodes/mode=" +
                      std::to_string(static_cast<int>(mode)),
                  inst, options);
  }
}

/// In kNone mode the window width only changes barrier cadence, not bits.
TEST(DesEngine, WindowWidthInvariance) {
  const Instance inst = make_instance(5);
  DataPlaneOptions options;
  options.rounds = 50;
  options.repair = RepairMode::kNone;
  options.window_rounds = 1;
  const DataPlaneResult narrow = run_with(inst, options);
  options.window_rounds = 8;
  const DataPlaneResult wide = run_with(inst, options);
  options.window_rounds = 50;
  const DataPlaneResult whole = run_with(inst, options);
  expect_bitwise_equal(narrow, wide, "W=1 vs W=8");
  expect_bitwise_equal(narrow, whole, "W=1 vs W=50");
}

/// A budget that dies mid-run truncates the run at its golden round and
/// charge count for every thread count.
TEST(DesEngine, BudgetTruncationParity) {
  const Instance inst = make_instance(33);
  DataPlaneOptions options;
  options.rounds = 200;
  options.repair = RepairMode::kNone;
  options.window_rounds = 8;
  expect_golden("BudgetTruncationParity/budget=37", inst, options, 37);

  Budget budget;
  budget.set_work_limit(37);
  options.budget = &budget;
  EXPECT_EQ(run_with(inst, options).rounds, 37);
}

/// The periodic flush writes a parseable snapshot and counts itself.
TEST(DesEngine, MetricsFlushWritesSnapshots) {
  const Instance inst = make_instance(2);
  const std::string path = ::testing::TempDir() + "des_flush_metrics.json";
  DataPlaneOptions options;
  options.rounds = 32;
  options.repair = RepairMode::kNone;
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
