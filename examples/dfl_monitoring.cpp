/// \file dfl_monitoring.cpp
/// \brief Device-free-localization deployment walkthrough (the paper's own
/// evaluation scenario): synthesize the 16-tripod testbed, estimate link
/// qualities from beacons, compare tree-construction strategies, and
/// validate the chosen tree with packet-level simulation.

#include <iostream>

#include "baselines/aaml.hpp"
#include "baselines/mst_baseline.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/solve.hpp"
#include "radio/packet_sim.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

int main() {
  using namespace mrlc;

  // --- Deploy the testbed and estimate link qualities from beacons. -----
  const scenario::DflSystem sys = scenario::make_dfl_system();
  std::cout << "DFL testbed: " << sys.network.node_count()
            << " tripods on a 3.6 m square, " << sys.network.link_count()
            << " usable links (PRR estimated from 1000 beacon rounds)\n\n";

  // --- Candidate trees. -------------------------------------------------
  // AAML ignores link quality, so (as in the paper) it gets the graph with
  // links below 0.95 PRR filtered out.
  const baselines::AamlResult aaml =
      baselines::aaml(scenario::filter_links(sys.network, 0.95));
  const baselines::MstResult mst = baselines::mst_baseline(sys.network);
  core::SolveRequest request;
  request.bound = aaml.lifetime;
  request.ira.bound_mode = core::BoundMode::kDirect;
  const core::SolveResult ira = core::solve(sys.network, request);

  Table table({"strategy", "reliability", "lifetime_rounds", "battery_years@1Hz"});
  auto years = [](double rounds) { return rounds / (3600.0 * 24.0 * 365.0); };
  table.begin_row().add("AAML (lifetime only)").add(aaml.reliability, 3)
      .add(aaml.lifetime, 0).add(years(aaml.lifetime), 2);
  table.begin_row().add("MST (reliability only)").add(mst.reliability, 3)
      .add(mst.lifetime, 0).add(years(mst.lifetime), 2);
  table.begin_row().add("IRA (both)").add(ira.reliability, 3)
      .add(ira.lifetime, 0).add(years(ira.lifetime), 2);
  table.print(std::cout);

  // --- Validate the IRA tree with a packet-level simulation. ------------
  Rng rng(99);
  const radio::AggregateResult sim =
      radio::simulate_rounds(sys.network, ira.tree, radio::RetxPolicy{}, 50000, rng);
  std::cout << "\npacket-level check of the IRA tree over 50k rounds:\n"
            << "  complete rounds: " << sim.round_success_ratio * 100.0
            << "% (analytic Q(T) = " << ira.reliability * 100.0 << "%)\n"
            << "  avg readings delivered per round: " << sim.avg_readings_delivered
            << " of " << sys.network.node_count() << '\n';

  std::cout << "\nIRA keeps AAML's lifetime while matching MST-class "
               "reliability — the paper's core claim.\n";
  return 0;
}
