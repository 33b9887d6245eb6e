#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads.  Each builds its inputs from the seed,
/// times calls into the solver libraries from outside, checks every output
/// and fills a Report: end-to-end metrics when `tracer` is null, per-layer
/// metrics (from spans and the metrics registry) when it is set.

#include <cstdint>
#include <map>
#include <string>

#include "checks.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< null: untraced run, registry off
  GoldenTable golden;        ///< this workload's golden values
  bool capture_golden = false;  ///< print golden lines instead of measuring
};

Report run_ira(const RunOptions& options);
Report run_dataplane_grid(const RunOptions& options);
Report run_service_mix(const RunOptions& options);

/// Phase count and inclusive time, read from the registry's JSON snapshot.
struct PhaseTotal {
  long long count = 0;
  double total_ms = 0.0;
};
/// Every non-empty phase of the metrics registry, keyed by path.
std::map<std::string, PhaseTotal> registry_phases();
/// Sum of the phases whose last path segment is `leaf`.
PhaseTotal phase_leaf_total(const std::map<std::string, PhaseTotal>& phases,
                            const std::string& leaf);
/// Current value of a registry counter.
long long counter_value(const char* name);
/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Per-layer metrics of the solver core read from the registry, averaged
/// over `ops` operations: solve, separation, simplex and residual time,
/// cut rounds, outer iterations, max-flows, pool hits, cut yield, pivots,
/// warm-pivot share, refactorizations and cold fallbacks.
/// `solve_ms_total` is the time the operations spent in core solves.
void report_core_layers(Report& report, double ops, double solve_ms_total);

}  // namespace perfbench
