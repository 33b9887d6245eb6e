/// \file workload_dataplane.cpp
/// \brief `dataplane_grid_n100k`: 60 estimator-repair convergecast rounds
/// on a seeded 400x250 grid with a BFS tree, through `dist::run_dataplane`.
///
/// 60 rounds is the shortest run whose estimator detects link changes
/// (20 rounds detect none), so degraded events reach the maintainer.
/// Every run of one seed is the same simulation, so each is checked
/// against a digest of its result fields; the first run records the
/// registry too and is checked against the golden digest of fields and
/// dataplane.*/arq.* counters.

#include <cstdio>
#include <exception>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "distributed/dataplane.hpp"
#include "prufer/codec.hpp"
#include "scenario/random_net.hpp"
#include "workloads.hpp"
#include "wsn/metrics.hpp"

namespace perfbench {

namespace {

using namespace mrlc;

constexpr int kRows = 400;
constexpr int kCols = 250;
constexpr int kRounds = 60;
/// Chosen for steadiness: over 5 seeds on the 4-core reference box the
/// median run time spread by 0.16 at 4 threads, 0.09 at 2 and 0.10 at 1.
constexpr unsigned kPoolWidth = 2;
/// Set-ups timed after each run.  A run gives only 16 to 45 gaps, and the
/// grid's set-up slows with a busy host more than the runs do (+40% against
/// +9% over one 10-seed set); many set-ups per gap catch its fast moments.
constexpr double kSetupGapSeconds = 0.15;

struct Grid {
  wsn::Network net{1};
  wsn::AggregationTree tree;
  double lifetime = 0.0;  ///< LC: half the BFS tree's lifetime
  std::uint64_t sim_seed = 0;
};

Grid make_grid(std::uint64_t seed, Tracer* tracer) {
  Grid grid;
  Rng root(seed);
  Rng grid_rng = root.fork(1);
  grid.sim_seed = root.fork(2)();
  {
    SpanScope span(tracer, "scenario.generate");
    scenario::GridNetworkConfig config;
    config.rows = kRows;
    config.cols = kCols;
    grid.net = scenario::make_grid_network(config, grid_rng);
  }
  SpanScope span(tracer, "scenario.bfs_tree");
  grid.tree = scenario::bfs_spanning_tree(grid.net);
  grid.lifetime = 0.5 * wsn::network_lifetime(grid.net, grid.tree);
  return grid;
}

struct Run {
  dist::DataPlaneResult result;
  double ms = 0.0;
  std::string error;  ///< run_dataplane threw
};

Run simulate(const Grid& grid) {
  wsn::Network net = grid.net;  // copied outside the timed call
  wsn::AggregationTree tree = grid.tree;
  dist::DataPlaneOptions options;
  options.rounds = kRounds;
  options.repair = dist::RepairMode::kEstimator;
  options.seed = grid.sim_seed;
  Run run;
  const double start = now_s();
  try {
    run.result = dist::run_dataplane(std::move(net), std::move(tree),
                                     grid.lifetime, options);
  } catch (const std::exception& e) {
    run.error = std::string("run_dataplane threw: ") + e.what();
  }
  run.ms = (now_s() - start) * 1e3;
  return run;
}

/// Runs once with the registry recording: returns the run plus the digests
/// of its fields and of fields + counters.
struct RecordedRun {
  Run run;
  std::string fields_digest;
  std::string full_digest;
};

RecordedRun simulate_recorded(const Grid& grid) {
  metrics::reset();
  metrics::set_enabled(true);
  RecordedRun out;
  out.run = simulate(grid);
  metrics::set_enabled(false);
  const std::string fields = dataplane_fields_text(out.run.result);
  out.fields_digest = digest(fields);
  out.full_digest = digest(fields + dataplane_counters_text());
  return out;
}

/// Checks a run's result fields against `expected_fields`.
std::string check_run(const Run& run, const std::string& expected_fields) {
  if (!run.error.empty()) return run.error;
  return check_digest("fields", digest(dataplane_fields_text(run.result)),
                      expected_fields);
}

/// Also checks a recorded run's fields + counters against the golden
/// digest, when the seed has one.
std::string check_recorded(const RecordedRun& rec,
                           const std::string& expected_fields,
                           const std::vector<std::string>* golden) {
  std::string error = check_run(rec.run, expected_fields);
  if (error.empty() && golden != nullptr && golden->size() >= 2) {
    error = check_digest("fields+counters", rec.full_digest, (*golden)[1]);
  }
  return error;
}

}  // namespace

Report run_dataplane_grid(const RunOptions& options) {
  Report report;
  set_default_thread_count(kPoolWidth);
  metrics::set_enabled(false);
  report.context["pool_width"] = std::to_string(kPoolWidth);
  report.context["callers"] = std::to_string(1);
  report.context["rounds"] = std::to_string(kRounds);

  const auto golden_it = options.golden.find(std::to_string(options.seed));
  const std::vector<std::string>* golden =
      golden_it == options.golden.end() ? nullptr : &golden_it->second;

  if (options.capture_golden) {
    const RecordedRun rec = simulate_recorded(make_grid(options.seed, nullptr));
    if (!rec.run.error.empty()) {
      std::fprintf(stderr, "%s\n", rec.run.error.c_str());
      report.count(rec.run.error);
      return report;
    }
    std::printf("%llu %s %s\n", static_cast<unsigned long long>(options.seed),
                rec.fields_digest.c_str(), rec.full_digest.c_str());
    return report;
  }

  if (options.tracer == nullptr) {
    const auto make = [&] { return make_grid(options.seed, nullptr); };
    const Grid grid = make();
    SetupClock setup(kSetupGapSeconds);
    setup.sample(make);
    // Warm-up run: records the registry for the event count and the
    // golden digest, then every timed run must reproduce its fields.
    const RecordedRun first = simulate_recorded(grid);
    const std::string expected_fields =
        golden != nullptr ? golden->front() : first.fields_digest;
    report.count(check_recorded(first, expected_fields, golden));
    const double events = static_cast<double>(
        counter_value("dataplane.events_processed"));

    std::vector<double> run_ms;
    double run_ms_total = 0.0;
    // Set-ups are timed between runs and left out of the window.
    double setup_in_window_s = 0.0;
    const double start = now_s();
    do {
      const Run run = simulate(grid);
      run_ms.push_back(run.ms);
      run_ms_total += run.ms;
      report.count(check_run(run, expected_fields));
      setup_in_window_s += setup.sample(make);
    } while (now_s() - start - setup_in_window_s < options.seconds);

    report_setup(report, setup);
    report.set("op_ms_p50", quantile(run_ms, 0.5), "ms");
    report.set("throughput_per_s",
               ratio(events * static_cast<double>(run_ms.size()),
                     run_ms_total / 1e3),
               "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.context["events_per_run"] = json_number(events);
    report.context["samples"] = std::to_string(run_ms.size());
    return report;
  }

  // Traced run: after a warm-up, untraced at the pool width and at one
  // thread (the scaling pass), then traced at the pool width.
  Tracer& tracer = *options.tracer;
  Grid grid;
  double setup_ms = 0.0;
  {
    SpanScope setup(&tracer, "bench.setup");
    const double start = now_s();
    grid = make_grid(options.seed, &tracer);
    setup_ms = (now_s() - start) * 1e3;
  }
  report.set("scenario.generate_ms", setup_ms, "ms");
  {
    // The maintainer re-encodes the parent array on every tree change.
    const double start = now_s();
    SpanScope span(&tracer, "prufer.encode");
    const prufer::Code code = prufer::encode(grid.tree.parents());
    report.set("prufer.encode_ms", (now_s() - start) * 1e3, "ms");
    if (code.size() + 2 != static_cast<std::size_t>(grid.net.node_count())) {
      report.count("prufer code has " + std::to_string(code.size()) + " entries");
    }
  }

  simulate(grid);  // warm-up: first touch of the simulation's memory
  const Run wide = simulate(grid);
  const std::string expected_fields =
      golden != nullptr ? golden->front() : digest(dataplane_fields_text(wide.result));
  report.count(check_run(wide, expected_fields));
  set_default_thread_count(1);
  const Run narrow = simulate(grid);
  report.count(check_run(narrow, expected_fields));
  set_default_thread_count(kPoolWidth);

  RecordedRun traced;
  {
    SpanScope span(&tracer, "distributed.run");
    traced = simulate_recorded(grid);
  }
  report.count(check_recorded(traced, expected_fields, golden));

  const double events = static_cast<double>(counter_value("dataplane.events_processed"));
  const double windows = static_cast<double>(counter_value("des.windows"));
  const double transactions = static_cast<double>(counter_value("arq.transactions"));
  const double speedup = ratio(narrow.ms, wide.ms);
  report.set("distributed.run_ms", traced.run.ms, "ms");
  report.set("distributed.events_scheduled",
             static_cast<double>(counter_value("dataplane.events_scheduled")), "count");
  report.set("distributed.windows", windows, "count");
  report.set("distributed.events_per_window", ratio(events, windows), "count");
  report.set("distributed.detections", static_cast<double>(traced.run.result.detections), "count");
  report.set("distributed.repairs_applied",
             static_cast<double>(traced.run.result.repairs_applied), "count");
  report.set("distributed.speedup", speedup, "x");
  report.set("distributed.efficiency", speedup / kPoolWidth, "ratio");
  report.set("radio.transactions", transactions, "count");
  report.set("radio.retransmissions",
             static_cast<double>(counter_value("arq.retransmissions")), "count");
  report.set("radio.tx_per_transaction",
             ratio(static_cast<double>(counter_value("arq.data_tx")), transactions),
             "ratio");
  report.set("trace.overhead_pct", (traced.run.ms / wide.ms - 1.0) * 100.0, "%");
  report.context["run_ms_1_thread"] = json_number(narrow.ms);
  report.context["run_ms_pool_width"] = json_number(wide.ms);
  return report;
}

}  // namespace perfbench
