#pragma once

/// \file random_sweep.hpp
/// \brief Shared driver for the random-graph experiments (Figs. 8-10):
/// per-instance cost of AAML, IRA at LC = L_AAML, and MST.

#include <iostream>
#include <optional>
#include <vector>

#include "baselines/aaml.hpp"
#include "baselines/mst_baseline.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "core/solve.hpp"
#include "scenario/random_net.hpp"

namespace mrlc::bench {

struct SweepRow {
  double aaml_cost = 0.0;
  double aaml_reliability = 0.0;
  double ira_cost = 0.0;
  double ira_reliability = 0.0;
  bool ira_meets = false;
  double mst_cost = 0.0;
  double mst_reliability = 0.0;
  double lifetime_constraint = 0.0;
};

/// Runs one instance: AAML fixes the lifetime constraint, the selected
/// solver variant (direct bound) and MST compete on cost.  `max_lifetime`
/// treats the bound as a floor, and a variant whose feasibility region is
/// stricter than MRLC's (etx/min_energy charge conservative energy rows)
/// may report the instance infeasible, which the row records as a violated
/// bound with zeroed solver columns.
inline SweepRow run_instance(const wsn::Network& net,
                             core::VariantId variant = core::VariantId::kMrlc) {
  SweepRow row;
  const baselines::AamlResult aaml = baselines::aaml(net);
  core::SolveRequest request;
  request.variant = variant;
  request.bound = aaml.lifetime;
  request.ira.bound_mode = core::BoundMode::kDirect;
  const core::SolveResult res = core::solve(net, request);
  if (res.status != core::SolveStatus::kInfeasible) {
    row.ira_cost = res.cost;
    row.ira_reliability = res.reliability;
    row.ira_meets = res.meets_bound;
  }
  const baselines::MstResult mst = baselines::mst_baseline(net);
  row.aaml_cost = aaml.cost;
  row.aaml_reliability = aaml.reliability;
  row.mst_cost = mst.cost;
  row.mst_reliability = mst.reliability;
  row.lifetime_constraint = aaml.lifetime;
  return row;
}

/// Runs `count` independent instances on the default pool (one RNG stream
/// each, so the rows are identical for every thread count).
inline std::vector<SweepRow> run_sweep(const scenario::RandomNetworkConfig& config,
                                       int count, std::uint64_t base_seed,
                                       core::VariantId variant = core::VariantId::kMrlc) {
  std::vector<SweepRow> rows(static_cast<std::size_t>(count));
  Rng base(base_seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (auto& s : seeds) s = base();
  default_pool().for_each(count, [&](int i) {
    Rng rng(seeds[static_cast<std::size_t>(i)]);
    rows[static_cast<std::size_t>(i)] =
        run_instance(scenario::make_random_network(config, rng), variant);
  });
  return rows;
}

/// Prints the per-instance series (the paper plots one curve per
/// algorithm over 100 instances) followed by summary statistics.
inline void print_sweep(const std::vector<SweepRow>& rows,
                        const BenchArgs& args = {}) {
  const std::string solver = variant_label(args.variant);
  Table table({"instance", "AAML_cost_mb", solver + "_cost_mb", "MST_cost_mb",
               "AAML_rel", solver + "_rel", "MST_rel", solver + "_meets_LC"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    table.begin_row()
        .add(static_cast<long long>(i))
        .add(to_millibits(r.aaml_cost), 1)
        .add(to_millibits(r.ira_cost), 1)
        .add(to_millibits(r.mst_cost), 1)
        .add(r.aaml_reliability, 3)
        .add(r.ira_reliability, 3)
        .add(r.mst_reliability, 3)
        .add(r.ira_meets ? "yes" : "violated");
  }
  emit(table, args);

  std::vector<double> aaml_costs, ira_costs, mst_costs, gaps;
  int meets = 0;
  for (const SweepRow& r : rows) {
    aaml_costs.push_back(to_millibits(r.aaml_cost));
    ira_costs.push_back(to_millibits(r.ira_cost));
    mst_costs.push_back(to_millibits(r.mst_cost));
    gaps.push_back(to_millibits(r.ira_cost - r.mst_cost));
    meets += r.ira_meets ? 1 : 0;
  }
  const Summary a = summarize(aaml_costs);
  const Summary i = summarize(ira_costs);
  const Summary m = summarize(mst_costs);
  const Summary g = summarize(gaps);

  std::cout << "\nsummary over " << rows.size() << " instances (cost in millibits):\n";
  Table summary({"algorithm", "mean", "stddev", "min", "median", "max"});
  auto srow = [&](const char* name, const Summary& s) {
    summary.begin_row().add(std::string(name)).add(s.mean, 1).add(s.stddev, 1)
        .add(s.min, 1).add(s.median, 1).add(s.max, 1);
  };
  srow("AAML", a);
  srow((solver + "@L_AAML").c_str(), i);
  srow("MST (lower bound)", m);
  srow((solver + " - MST gap").c_str(), g);
  emit(summary, args);
  std::cout << solver << " met the lifetime constraint on " << meets << "/"
            << rows.size() << " instances\n";
}

}  // namespace mrlc::bench
