/// \file fig07_dfl_system.cpp
/// \brief Reproduces Fig. 7: total cost and reliability of AAML, IRA at
/// several lifetime constraints, and MST, on the (synthesized) DFL system.
///
/// Paper's numbers (their trace): AAML cost 378 / reliability 0.77; MST
/// cost 55 / reliability 0.963; IRA at LC = L_AAML cost 68 / reliability
/// 0.954, shrinking to the MST cost as the constraint loses bite.  Costs
/// are in millibits (1000 * log2 of the ETX product) — the unit that makes
/// the paper's cost/reliability pairs mutually consistent.
///
/// Reproduction notes (see EXPERIMENTS.md for the full discussion):
/// * AAML runs on the >= 0.95-PRR-filtered graph, as in the paper.
/// * IRA runs in the paper's evaluation regime (BoundMode::kDirect).  The
///   strict L' of Algorithm 1 (two children of headroom) is reported too;
///   at the paper's LC multiples it is typically undefined or infeasible,
///   which is why their higher-LC rows show "a little violation of
///   lifetime" — our implementation reports the violation explicitly
///   instead of hiding it.

#include <iostream>

#include "baselines/aaml.hpp"
#include "baselines/etx_spt.hpp"
#include "baselines/mst_baseline.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/branch_bound.hpp"
#include "core/solve.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

int main(int argc, char** argv) {
  const mrlc::bench::BenchArgs bench_args = mrlc::bench::parse_bench_args(argc, argv);
  using namespace mrlc;
  bench::print_header("Fig. 7", "cost & reliability on the DFL system");

  const scenario::DflSystem sys = scenario::make_dfl_system();
  std::cout << "instance: " << sys.network.node_count() << " nodes, "
            << sys.network.link_count() << " links\n";

  const wsn::Network filtered = scenario::filter_links(sys.network, 0.95);
  const baselines::AamlResult aaml = baselines::aaml(filtered);
  const baselines::MstResult mst = baselines::mst_baseline(sys.network);

  Table table({"algorithm", "lifetime_constraint", "cost_millibits", "reliability",
               "achieved_lifetime", "meets_bound"});
  auto add_row = [&](const std::string& name, const std::string& constraint,
                     double cost, double reliability, double lifetime,
                     const std::string& meets) {
    table.begin_row()
        .add(name)
        .add(constraint)
        .add(bench::to_millibits(cost), 1)
        .add(reliability, 3)
        .add(lifetime, 0)
        .add(meets);
  };

  add_row("AAML (links>=0.95)", "-", aaml.cost, aaml.reliability, aaml.lifetime, "-");
  add_row("MST (lower bound)", "-", mst.cost, mst.reliability, mst.lifetime, "-");
  const baselines::EtxSptResult etx = baselines::etx_spt(sys.network);
  add_row("ETX shortest-path tree", "-", etx.cost, etx.reliability, etx.lifetime, "-");

  // One request per bound mode; the LC sweep routes through the selected
  // --variant, while the strict-L' rows and the branch-and-bound row below
  // are MRLC-specific.
  auto solve = [&](core::VariantId variant, core::BoundMode mode, double lc) {
    core::SolveRequest request;
    request.variant = variant;
    request.bound = lc;
    request.ira.bound_mode = mode;
    return core::solve(sys.network, request);
  };
  auto add_solve_row = [&](const std::string& name, const std::string& label,
                           const core::SolveResult& res) {
    if (res.status == core::SolveStatus::kInfeasible) {
      table.begin_row().add(name).add(label).add("-").add("-").add("-").add(
          "infeasible");
      return;
    }
    add_row(name, label, res.cost, res.reliability, res.lifetime,
            res.meets_bound ? "yes" : "violated");
  };
  const std::string solver_name =
      bench::variant_label(bench_args.variant) + " (direct)";
  for (const double factor : {1.0, 1.5, 2.0, 2.5}) {
    const double lc = factor * aaml.lifetime;
    add_solve_row(solver_name, std::to_string(factor) + " x L_AAML",
                  solve(bench_args.variant, core::BoundMode::kDirect, lc));
  }
  // The strict Algorithm-1 bound, where defined.
  for (const double factor : {0.5, 0.75, 1.0}) {
    const double lc = factor * aaml.lifetime;
    add_solve_row("IRA (strict L')", std::to_string(factor) + " x L_AAML",
                  solve(core::VariantId::kMrlc, core::BoundMode::kPaperStrict,
                        lc));
  }
  // Exact optimum at LC = L_AAML via branch-and-bound: the true optimality
  // gap of IRA at the paper's full scale (enumeration cannot do n = 16).
  try {
    const auto exact = core::branch_bound_variant(core::VariantId::kMrlc,
                                                  sys.network, aaml.lifetime);
    if (exact.has_value()) {
      add_row("EXACT (branch&bound)", "1.0 x L_AAML", exact->cost,
              exact->reliability, exact->lifetime, "yes");
    } else {
      table.begin_row().add("EXACT (branch&bound)").add("1.0 x L_AAML").add("-")
          .add("-").add("-").add("infeasible");
    }
  } catch (const std::invalid_argument&) {
    table.begin_row().add("EXACT (branch&bound)").add("1.0 x L_AAML").add("-")
        .add("-").add("-").add("budget exceeded");
  }
  mrlc::bench::emit(table, bench_args);

  std::cout << "\nexpected shape: cost(MST) <= cost(IRA@L_AAML) << cost(AAML); "
               "reliability ordering inverted;\n"
               "IRA meets L_AAML without giving up much reliability (paper: "
               "24% reliability gain over AAML at equal lifetime)\n";
  std::cout << "reliability gain of IRA@1.0xL_AAML over AAML: ";
  const core::SolveResult res =
      solve(core::VariantId::kMrlc, core::BoundMode::kDirect, aaml.lifetime);
  if (res.status == core::SolveStatus::kInfeasible) {
    std::cout << "(infeasible)\n";
  } else {
    std::cout << (res.reliability - aaml.reliability) / aaml.reliability * 100.0
              << "%\n";
  }
  return 0;
}
