/// \file main.cpp
/// \brief The repository benchmark program.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--golden-dir DIR] [--trace-out PATH] [--git-rev REV]
///             [--capture-golden]
///
/// Prints one `# context {...}` line (build, machine, pool width, callers,
/// seed, tails, sample counts and the host's CPU steal during the run),
/// then, as the last line, one JSON object {"correct", "attempted",
/// "failed", "metrics"}.  `--trace 0` measures the
/// end-to-end metrics with spans and the metrics registry off; `--trace 1`
/// reports the per-layer metrics instead and writes the spans to
/// `--trace-out` as Chrome trace events.  `--capture-golden` prints the
/// workload's golden lines for this commit instead of measuring.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

struct Workload {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"ira_n128", perfbench::run_ira},
    {"dataplane_grid_n100k", perfbench::run_dataplane_grid},
    {"service_mix", perfbench::run_service_mix},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints; a workload that gives no
/// value for one (its layer does no work there) reports 0 and names it in
/// the context line's `idle`.
constexpr LayerMetric kLayerMetrics[] = {
    {"scenario.generate_ms", "ms"},    {"baselines.mst_ms", "ms"},
    {"core.solve_ms", "ms"},           {"core.separation_ms", "ms"},
    {"core.unattributed_ms", "ms"},    {"core.cut_rounds", "count"},
    {"core.outer_iterations", "count"}, {"core.pool_hits", "count"},
    {"graph.maxflow_calls", "count"},  {"core.cut_yield", "ratio"},
    {"lp.simplex_ms", "ms"},           {"lp.pivots", "count"},
    {"lp.warm_pivot_share", "ratio"},  {"lp.refactorizations", "count"},
    {"lp.cold_fallbacks", "count"},    {"distributed.run_ms", "ms"},
    {"distributed.events_scheduled", "count"},
    {"distributed.windows", "count"},
    {"distributed.events_per_window", "count"},
    {"distributed.detections", "count"},
    {"distributed.repairs_applied", "count"},
    {"distributed.speedup", "x"},      {"distributed.efficiency", "ratio"},
    {"radio.transactions", "count"},   {"radio.retransmissions", "count"},
    {"radio.tx_per_transaction", "ratio"},
    {"prufer.encode_ms", "ms"},        {"service.queue_ms_p50", "ms"},
    {"service.solve_ms_p50", "ms"},    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.batch_fill", "ratio"},   {"service.wire_encode_us", "us"},
    {"service.wire_decode_us", "us"},  {"trace.overhead_pct", "%"},
};

/// Layers whose self time the traced run reports, as `self_ms.<layer>`.
constexpr const char* kLayers[] = {"bench", "scenario", "baselines", "core",
                                   "lp", "prufer", "distributed", "service",
                                   "wire"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--golden-dir DIR] [--trace-out PATH] "
               "[--git-rev REV] [--capture-golden]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

/// Aggregate CPU time counters from /proc/stat: {steal, total} in ticks.
/// Steal is time the host ran something else while this guest was ready;
/// on a shared virtual machine it explains much of the run-to-run noise.
std::pair<long long, long long> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long total = 0;
  long long steal = 0;
  in >> label;
  for (int field = 0; field < 8 && in; ++field) {
    long long value = 0;
    in >> value;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::string json_object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += perfbench::json_quote(key) + ": " + perfbench::json_quote(value);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string golden_dir = "perfbench/golden";
  std::string trace_out;
  std::string git_rev = "unknown";
  RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload_name = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = options.seconds > 0.0;
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--golden-dir") {
        golden_dir = value();
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--git-rev") {
        git_rev = value();
      } else if (arg == "--capture-golden") {
        options.capture_golden = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (!have_seed) usage("--seed is required");
  if (!options.capture_golden && (!have_seconds || (trace != 0 && trace != 1))) {
    usage("--seconds > 0 and --trace 0|1 are required");
  }

  options.golden =
      perfbench::load_golden(golden_dir + "/" + workload->name + ".txt");
  perfbench::Tracer tracer;
  if (trace == 1) options.tracer = &tracer;

  Report report;
  const auto ticks_before = cpu_ticks();
  try {
    report = workload->run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " failed: " << e.what() << '\n';
    return 1;
  }
  if (options.capture_golden) return report.failed == 0 ? 0 : 1;

  const auto ticks_after = cpu_ticks();
  std::map<std::string, std::string> context = report.context;
  context["host_steal_pct"] = perfbench::json_number(
      100.0 * perfbench::ratio(
                  static_cast<double>(ticks_after.first - ticks_before.first),
                  static_cast<double>(ticks_after.second - ticks_before.second)));
  context["workload"] = workload->name;
  context["seed"] = std::to_string(options.seed);
  context["seconds"] = perfbench::json_number(options.seconds);
  context["trace"] = std::to_string(trace);
  context["git_rev"] = git_rev;
  context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  context["build_type"] = PERFBENCH_BUILD_TYPE;
  context["compiler"] = PERFBENCH_COMPILER;

  if (trace == 1) {
    const auto self_ms = tracer.self_ms_by_layer();
    for (const char* layer : kLayers) {
      const auto it = self_ms.find(layer);
      report.set(std::string("self_ms.") + layer,
                 it == self_ms.end() ? 0.0 : it->second, "ms");
    }
    std::string idle;
    for (const LayerMetric& m : kLayerMetrics) {
      if (report.metrics.count(m.name) != 0) continue;
      report.set(m.name, 0.0, m.unit);
      idle += (idle.empty() ? "" : " ") + std::string(m.name);
    }
    context["idle"] = idle;
    if (!trace_out.empty() && !tracer.write_chrome_json(trace_out, context)) {
      std::cerr << "perfbench: cannot write " << trace_out << '\n';
      return 1;
    }
  }

  for (const std::string& failure : report.failures) {
    std::cerr << "perfbench: check failed: " << failure << '\n';
  }
  std::cout << "# context " << json_object(context) << '\n';
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += perfbench::json_quote(name) + ": {\"value\": " +
               perfbench::json_number(metric.value) +
               ", \"unit\": " + perfbench::json_quote(metric.unit) + "}";
  }
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
