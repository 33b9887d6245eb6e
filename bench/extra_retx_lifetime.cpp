/// \file extra_retx_lifetime.cpp
/// \brief Extension experiment (no counterpart figure in the paper):
/// what happens to the candidate trees when the deployment keeps ETX
/// retransmissions on?
///
/// The paper's Fig. 1 motivates MRLC by showing retransmissions burn
/// ~90% of the energy at low link quality — and then sidesteps the issue
/// by disabling them.  This bench closes the loop: it evaluates the same
/// trees under the retransmission-aware energy model
/// (`wsn::network_lifetime_retx`), validates the analytic rates against
/// the packet-level depletion simulator, and shows that the
/// retransmission-aware solver (`core::retx_aware_ira`) recovers the lost
/// lifetime at a modest reliability price.

#include <iostream>

#include "baselines/aaml.hpp"
#include "baselines/mst_baseline.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/retx_ira.hpp"
#include "radio/depletion_sim.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

int main(int argc, char** argv) {
  using namespace mrlc;
  const bench::BenchArgs bench_args = bench::parse_bench_args(argc, argv);
  bench::print_header("Extra", "retransmission-aware lifetime of candidate trees");
  bench::print_note(
      "extension experiment: the paper's trees re-evaluated under an ETX "
      "retransmit-until-delivered policy");

  const scenario::DflSystem sys = scenario::make_dfl_system();
  const baselines::AamlResult aaml =
      baselines::aaml(scenario::filter_links(sys.network, 0.95));

  core::SolveRequest request;
  request.bound = aaml.lifetime;
  request.ira.bound_mode = core::BoundMode::kDirect;
  const core::SolveResult ira = core::solve(sys.network, request);
  const baselines::MstResult mst = baselines::mst_baseline(sys.network);

  // Retransmission-aware solve: scan downward from +30% over the plain
  // IRA tree's retx lifetime to the largest bound the (conservative,
  // bounded-violation) extension can actually certify.
  const double ira_retx = wsn::network_lifetime_retx(sys.network, ira.tree);
  bool retx_ok = false;
  double retx_bound = 0.0;
  core::SolveResult retx;
  for (const double factor : {1.3, 1.2, 1.1, 1.05, 1.0, 0.9}) {
    try {
      core::SolveResult candidate =
          core::retx_aware_ira(sys.network, factor * ira_retx);
      if (candidate.meets_bound) {
        retx = std::move(candidate);
        retx_bound = factor * ira_retx;
        retx_ok = true;
        break;
      }
    } catch (const InfeasibleError&) {
    }
  }

  Rng rng(2027);
  radio::RetxPolicy policy;
  policy.enabled = true;

  Table table({"tree", "reliability", "eq1_lifetime", "retx_lifetime_analytic",
               "retx_lifetime_simulated"});
  auto add_row = [&](const std::string& name, const wsn::AggregationTree& tree) {
    const radio::DepletionResult dep =
        radio::simulate_depletion(sys.network, tree, policy, 4000, rng);
    table.begin_row()
        .add(name)
        .add(wsn::tree_reliability(sys.network, tree), 3)
        .add(wsn::network_lifetime(sys.network, tree), 0)
        .add(wsn::network_lifetime_retx(sys.network, tree), 0)
        .add(dep.rounds_survived, 0);
  };
  add_row("MST (reliability-optimal)", mst.tree);
  add_row("IRA @ L_AAML (paper)", ira.tree);
  if (retx_ok) {
    add_row("retx-aware IRA (max certified)", retx.tree);
  }
  bench::emit(table, bench_args);

  if (retx_ok) {
    std::cout << "\nmax certified retx bound: " << retx_bound << " rounds ("
              << retx_bound / ira_retx << "x the plain IRA tree's retx "
              << "lifetime); reliability " << retx.reliability << " vs IRA's "
              << ira.reliability << '\n';
  } else {
    std::cout << "\nretx-aware solve could not certify any scanned bound\n";
  }
  std::cout << "expected shape: analytic and simulated retx lifetimes agree "
               "within Monte-Carlo noise; on the DFL instance reliability and "
               "retx-lifetime mostly align (strong links are cheap in both), "
               "so the certified bound sits near the plain tree's — the "
               "crafted divergence case lives in tests/retx_test.cpp\n";
  return 0;
}
