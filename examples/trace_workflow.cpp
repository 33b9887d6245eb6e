/// \file trace_workflow.cpp
/// \brief Working from collected traces: the file-based workflow that the
/// `mrlc_gen` / `mrlc_solve` CLI tools automate, shown via the library API.
///
/// A deployment team typically (1) surveys the site and records link
/// qualities, (2) plans the tree offline, (3) ships the plan to the sink.
/// This example round-trips all three steps through the plain-text
/// formats (`wsn/io.hpp`), solving with `core::solve` in the kAuto bound
/// mode with exact certification.

#include <iostream>
#include <sstream>

#include "core/feasibility.hpp"
#include "core/solve.hpp"
#include "scenario/dfl.hpp"
#include "wsn/io.hpp"
#include "wsn/metrics.hpp"

int main() {
  using namespace mrlc;

  // --- 1. Site survey: here synthesized; in the field, a beacon sweep. ---
  const scenario::DflSystem sys = scenario::make_dfl_system();
  const std::string survey_file = wsn::network_to_string(sys.network);
  std::cout << "survey file (" << survey_file.size() << " bytes, "
            << sys.network.link_count() << " links); first lines:\n";
  std::istringstream preview(survey_file);
  std::string line;
  for (int i = 0; i < 4 && std::getline(preview, line); ++i) {
    std::cout << "    " << line << '\n';
  }

  // --- 2. Offline planning: parse, probe, solve, certify. ----------------
  const wsn::Network net = wsn::network_from_string(survey_file);
  const core::LifetimeBracket achievable = core::bracket_max_lifetime(net);
  std::cout << "\nachievable lifetime: [" << achievable.lower << ", "
            << achievable.upper << "] rounds\n";

  const double requirement = achievable.lower * 0.4;  // healthy margin
  core::SolveRequest request;
  request.bound = requirement;
  request.ira.bound_mode = core::BoundMode::kAuto;
  request.certify = true;
  const core::SolveResult plan = core::solve(net, request);
  std::cout << "requirement " << requirement << " rounds -> "
            << (plan.bound_mode == core::BoundMode::kPaperStrict
                    ? "strict Algorithm 1"
                    : "direct relaxation (fallback)")
            << ": reliability " << plan.reliability << ", lifetime "
            << plan.lifetime << " rounds ("
            << (plan.meets_bound ? "bound met"
                                 : "bound violated within +2 children/node")
            << ")";
  if (plan.exact_cost.has_value()) {
    std::cout << ", optimality gap " << plan.gap << " nats\n"
              << "certified against branch-and-bound: gap = " << plan.gap
              << " nats" << (plan.gap < 1e-9 ? " (provably optimal)" : "");
  }
  std::cout << '\n';

  // --- 3. Ship the plan: serialize the tree, reload it sink-side. --------
  const std::string plan_file = wsn::tree_to_string(plan.tree);
  const wsn::AggregationTree deployed = wsn::tree_from_string(plan_file, net);
  std::cout << "\nplan file round-trip: "
            << (deployed.parents() == plan.tree.parents() ? "intact"
                                                          : "CORRUPTED")
            << "; deployed tree reliability "
            << wsn::tree_reliability(net, deployed) << '\n';
  return 0;
}
