#include <regex>

#include "common/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

std::map<std::string, PhaseTotal> registry_phases() {
  // Phase objects in the mrlc-metrics-v1 snapshot read
  //   {"name": ..., "path": "a/b", "count": N, "total_ms": X, "children": [
  static const std::regex kPhase(
      R"re("path": "([^"]*)", "count": ([0-9]+), "total_ms": ([-+.0-9eE]+))re");
  const std::string json = mrlc::metrics::to_json_string();
  std::map<std::string, PhaseTotal> phases;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), kPhase);
       it != std::sregex_iterator(); ++it) {
    const long long count = std::stoll((*it)[2].str());
    if (count == 0) continue;
    phases[(*it)[1].str()] = PhaseTotal{count, std::stod((*it)[3].str())};
  }
  return phases;
}

PhaseTotal phase_leaf_total(const std::map<std::string, PhaseTotal>& phases,
                            const std::string& leaf) {
  PhaseTotal total;
  for (const auto& [path, phase] : phases) {
    const std::size_t slash = path.rfind('/');
    const std::string last =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (last != leaf) continue;
    total.count += phase.count;
    total.total_ms += phase.total_ms;
  }
  return total;
}

long long counter_value(const char* name) {
  return mrlc::metrics::counter(name).value();
}

void report_core_layers(Report& report, double ops, double solve_ms_total) {
  const auto phases = registry_phases();
  const double separation_ms = phase_leaf_total(phases, "separation").total_ms;
  const double simplex_ms = phase_leaf_total(phases, "simplex").total_ms;
  const auto per_op = [ops](double v) { return ratio(v, ops); };
  const double maxflows =
      static_cast<double>(counter_value("separation.maxflow_calls"));
  const double pivots = static_cast<double>(counter_value("simplex.pivots"));

  report.set("core.solve_ms", per_op(solve_ms_total), "ms");
  report.set("core.separation_ms", per_op(separation_ms), "ms");
  report.set("lp.simplex_ms", per_op(simplex_ms), "ms");
  report.set("core.unattributed_ms",
             per_op(solve_ms_total - separation_ms - simplex_ms), "ms");
  report.set("core.cut_rounds", per_op(counter_value("ira.lp_solves")), "count");
  report.set("core.outer_iterations",
             per_op(counter_value("ira.outer_iterations")), "count");
  report.set("core.pool_hits", per_op(counter_value("separation.pool_hits")),
             "count");
  report.set("graph.maxflow_calls", per_op(maxflows), "count");
  report.set("core.cut_yield",
             ratio(counter_value("separation.violated_sets"), maxflows),
             "ratio");
  report.set("lp.pivots", per_op(pivots), "count");
  report.set("lp.warm_pivot_share",
             ratio(counter_value("simplex.warm_pivots"), pivots), "ratio");
  report.set("lp.refactorizations",
             per_op(counter_value("simplex.sparse_refactorizations")), "count");
  report.set("lp.cold_fallbacks", per_op(counter_value("simplex.cold_fallbacks")),
             "count");
}

}  // namespace perfbench
