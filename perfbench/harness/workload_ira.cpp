/// \file workload_ira.cpp
/// \brief `ira_n128`: one caller solving G(128, 0.15) instances back to back
/// with `core::IterativeRelaxation` (kDirect, LC = the MST's lifetime).
///
/// The instance set is fixed and the seed sets the order it is cycled in;
/// a run measures whole cycles, so every instance weighs the same.  Solve
/// time of one G(128, 0.15) draw ranges over 30x (33 ms to 1.1 s on the
/// 4-core reference box), and a vertex relabeling of the same draw moves
/// it by up to 3x, so a seed-drawn set of the size one run can solve would
/// make solve_ms_p50 swing by a third from seed to seed.  Cycling one set
/// keeps the work per run fixed; its costs are the golden values.

#include <cstdio>
#include <exception>
#include <vector>

#include "baselines/mst_baseline.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/ira.hpp"
#include "scenario/random_net.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mrlc;

/// Odd, so the median solve of whole cycles falls inside one instance's
/// repeats: with 16, the median sat on the boundary between two instances
/// and jumped between their times (92 vs 108 ms) at equal throughput.
constexpr int kInstances = 15;
/// Instance i is the G(128, 0.15) draw of Rng(kBaseSeed + i): the same
/// draws as mrlc_bench's ira_random_n128_p015 repeats.
constexpr std::uint64_t kBaseSeed = 7000;
/// Above 1 so parallel separation shows; 4 threads let one preempted
/// worker stall every fan-out, which on the 4-core reference box spread
/// the same run's median by a third.
constexpr unsigned kPoolWidth = 2;

struct Instance {
  wsn::Network net;
  double lifetime = 0.0;  ///< LC: the MST's lifetime, always achievable
};

struct SetupTimes {
  double generate_ms = 0.0;
  double mst_ms = 0.0;
};

std::vector<Instance> make_instances(Tracer* tracer, SetupTimes& times) {
  std::vector<Instance> out;
  for (int i = 0; i < kInstances; ++i) {
    scenario::RandomNetworkConfig config;
    config.node_count = 128;
    config.link_probability = 0.15;
    Rng rng(kBaseSeed + static_cast<std::uint64_t>(i));
    const double t0 = now_s();
    wsn::Network net = [&] {
      SpanScope span(tracer, "scenario.generate", i);
      return scenario::make_random_network(config, rng);
    }();
    const double t1 = now_s();
    times.generate_ms += (t1 - t0) * 1e3;
    const double lifetime = [&] {
      SpanScope span(tracer, "baselines.mst", i);
      return baselines::mst_baseline(net).lifetime;
    }();
    times.mst_ms += (now_s() - t1) * 1e3;
    out.push_back(Instance{std::move(net), lifetime});
  }
  return out;
}

core::IraResult solve(const Instance& instance) {
  core::IraOptions options;
  options.bound_mode = core::BoundMode::kDirect;
  return core::IterativeRelaxation(options).solve(instance.net,
                                                  instance.lifetime);
}

/// Checks one solve; `golden` is null when the instance has no golden.
std::string check(const Instance& instance, const core::IraResult& result,
                  const std::vector<std::string>* golden) {
  std::string error = check_tree(instance.net, result.tree.parents(),
                                 instance.lifetime, result.cost);
  if (error.empty() && golden != nullptr && !golden->empty()) {
    error = check_golden_cost(result.cost, std::stod(golden->front()));
  }
  return error;
}

/// Solves instance `i` and counts its check in `report`; returns the solve
/// wall time in ms.
double solve_checked(const std::vector<Instance>& instances, int i,
                     const GoldenTable& golden, Report& report) {
  const double start = now_s();
  std::string error;
  double elapsed_ms = 0.0;
  try {
    const core::IraResult result = solve(instances[static_cast<std::size_t>(i)]);
    elapsed_ms = (now_s() - start) * 1e3;
    const auto it = golden.find(std::to_string(i));
    error = check(instances[static_cast<std::size_t>(i)], result,
                  it == golden.end() ? nullptr : &it->second);
  } catch (const std::exception& e) {
    elapsed_ms = (now_s() - start) * 1e3;
    error = std::string("solve threw: ") + e.what();
  }
  report.count(error.empty() ? "" : "instance " + std::to_string(i) + ": " + error);
  return elapsed_ms;
}

}  // namespace

Report run_ira(const RunOptions& options) {
  Report report;
  set_default_thread_count(kPoolWidth);
  metrics::set_enabled(false);
  report.context["pool_width"] = std::to_string(kPoolWidth);
  report.context["callers"] = std::to_string(1);
  report.context["instances"] = std::to_string(kInstances);

  std::vector<int> order(kInstances);
  for (int i = 0; i < kInstances; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng order_rng(options.seed);
  order_rng.shuffle(order);

  if (options.capture_golden) {
    SetupTimes times;
    const std::vector<Instance> instances = make_instances(nullptr, times);
    for (int i = 0; i < kInstances; ++i) {
      std::printf("%d %.17g\n", i, solve(instances[static_cast<std::size_t>(i)]).cost);
    }
    return report;
  }

  if (options.tracer == nullptr) {
    const auto make = [] {
      SetupTimes times;
      return make_instances(nullptr, times);
    };
    const std::vector<Instance> instances = make();
    SetupClock setup;
    setup.sample(make);
    solve(instances[static_cast<std::size_t>(order.front())]);  // warm-up
    std::vector<double> solve_ms;
    // Set-ups are timed between cycles and left out of the window.
    double setup_in_window_s = 0.0;
    const double start = now_s();
    while (now_s() - start - setup_in_window_s < options.seconds) {
      for (const int i : order) {
        solve_ms.push_back(solve_checked(instances, i, options.golden, report));
      }
      setup_in_window_s += setup.sample(make);
    }
    const double window_s = now_s() - start - setup_in_window_s;
    report_setup(report, setup);
    report.set("op_ms_p50", quantile(solve_ms, 0.5), "ms");
    report.set("throughput_per_s", ratio(static_cast<double>(solve_ms.size()), window_s), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    const auto [label, tail] = tail_percentile(solve_ms);
    if (!label.empty()) report.context["solve_ms_" + label] = json_number(tail);
    report.context["samples"] = std::to_string(solve_ms.size());
    return report;
  }

  // Traced run: one untraced and one traced pass over the whole set.
  Tracer& tracer = *options.tracer;
  SetupTimes times;
  std::vector<Instance> instances;
  {
    SpanScope setup(&tracer, "bench.setup");
    instances = make_instances(&tracer, times);
  }
  report.set("scenario.generate_ms", times.generate_ms, "ms");
  report.set("baselines.mst_ms", times.mst_ms, "ms");

  solve(instances[static_cast<std::size_t>(order.front())]);  // warm-up
  const double untraced_start = now_s();
  for (const int i : order) solve_checked(instances, i, options.golden, report);
  const double untraced_s = now_s() - untraced_start;

  metrics::reset();
  metrics::set_enabled(true);
  double solve_ms_total = 0.0;
  const double traced_start = now_s();
  {
    SpanScope pass(&tracer, "bench.pass");
    for (const int i : order) {
      const auto before = registry_phases();
      const double span_start = tracer.now_us();
      const long span = tracer.open("core.solve", i);
      solve_ms_total += solve_checked(instances, i, options.golden, report);
      tracer.close(span);
      // Separation and simplex run inside the solve; their time comes from
      // the registry's phase totals and is laid out as child spans.
      const auto after = registry_phases();
      double at = span_start;
      for (const auto& [leaf, name] :
           {std::pair{"separation", "core.separation"},
            std::pair{"simplex", "lp.simplex"}}) {
        const double ms = phase_leaf_total(after, leaf).total_ms -
                          phase_leaf_total(before, leaf).total_ms;
        tracer.add(name, span, at, at + ms * 1e3, i);
        at += ms * 1e3;
      }
    }
  }
  const double traced_s = now_s() - traced_start;
  metrics::set_enabled(false);

  report_core_layers(report, kInstances, solve_ms_total);
  report.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
  return report;
}

}  // namespace perfbench
