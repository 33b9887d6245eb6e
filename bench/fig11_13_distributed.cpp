/// \file fig11_13_distributed.cpp
/// \brief Reproduces Figs. 11-13: the distributed updating protocol vs. the
/// centralized IRA over 100 rounds of link degradation on the DFL system.
///
/// Protocol of the paper's experiment: start from the IRA tree (every node
/// holds its Prüfer code); each round a randomly chosen tree link becomes
/// less reliable (its cost increases by 1e-3, i.e. PRR multiplied by
/// e^-0.001), the child reacts with the Link-Getting-Worse scheme, and we
/// compare against re-running centralized IRA on the current network.
///
/// * Fig. 11 — total tree cost over rounds (distributed within ~25 cost
///   units of IRA in the paper's scale).
/// * Fig. 12 — reliability over rounds (gap <= ~0.02).
/// * Fig. 13 — cumulative messages and average messages per update
///   (< 10 messages per update at n = 16).
///
/// The paper's 1e-3 per-round degradation is tiny (1.44 millibits), so we
/// also run a 50x-stronger variant that actually exercises re-parenting.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aaml.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/solve.hpp"
#include "distributed/maintainer.hpp"
#include "distributed/simulator.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

namespace {

using namespace mrlc;

void run_variant(double cost_increase_nats, std::uint64_t seed,
                 const bench::BenchArgs& bench_args) {
  scenario::DflSystem sys = scenario::make_dfl_system();
  const baselines::AamlResult aaml =
      baselines::aaml(scenario::filter_links(sys.network, 0.95));
  const double bound = aaml.lifetime;

  // Centralized reference: the --variant solve in direct mode.  A variant
  // whose feasibility region is stricter than MRLC's (etx/min_energy
  // charge conservative energy rows) can be infeasible at LC = L_AAML;
  // such rounds fall back to the mrlc tree so the protocol comparison
  // still has a reference.
  auto central = [&](const wsn::Network& net) {
    core::SolveRequest request;
    request.variant = bench_args.variant;
    request.bound = bound;
    request.ira.bound_mode = core::BoundMode::kDirect;
    core::SolveResult r = core::solve(net, request);
    if (r.status == core::SolveStatus::kInfeasible &&
        request.variant != core::VariantId::kMrlc) {
      request.variant = core::VariantId::kMrlc;
      r = core::solve(net, request);
    }
    if (r.status == core::SolveStatus::kInfeasible) {
      throw InfeasibleError(r.message);
    }
    return r;
  };

  const core::SolveResult initial = central(sys.network);
  dist::ProtocolSimulator protocol(sys.network, initial.tree, bound);

  std::cout << "\nper-round cost increase: " << cost_increase_nats << " nats ("
            << bench::to_millibits(cost_increase_nats) << " millibits); "
            << "initial cost " << bench::to_millibits(initial.cost)
            << " mb, lifetime constraint " << bound << " rounds\n";

  Rng rng(seed);
  const std::string central_name = bench::variant_label(bench_args.variant);
  Table table({"round", "distributed_cost_mb", central_name + "_cost_mb",
               "distributed_rel", central_name + "_rel", "total_msgs",
               "avg_msgs_per_update", "flood_tx"});
  long long updates_so_far = 0;
  for (int round = 1; round <= 100; ++round) {
    // Degrade a random current tree link.
    const auto edges = protocol.tree().edge_ids();
    const wsn::EdgeId victim = edges[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
    const double new_prr = wsn::Network::cost_to_prr(
        sys.network.link_cost(victim) + cost_increase_nats);
    sys.network.set_link_prr(victim, new_prr);

    protocol.on_link_degraded(sys.network, victim);
    updates_so_far = protocol.maintainer().stats().updates_applied;

    if (round % 10 != 0) continue;
    const core::SolveResult fresh = central(sys.network);
    const double dist_cost = wsn::tree_cost(sys.network, protocol.tree());
    const double dist_rel = wsn::tree_reliability(sys.network, protocol.tree());
    table.begin_row()
        .add(static_cast<long long>(round))
        .add(bench::to_millibits(dist_cost), 1)
        .add(bench::to_millibits(fresh.cost), 1)
        .add(dist_rel, 4)
        .add(fresh.reliability, 4)
        .add(static_cast<long long>(protocol.maintainer().stats().total_messages))
        .add(updates_so_far > 0
                 ? static_cast<double>(
                       protocol.maintainer().stats().total_messages) /
                       static_cast<double>(updates_so_far)
                 : 0.0,
             2)
        .add(static_cast<long long>(protocol.stats().flood_transmissions));
  }
  mrlc::bench::emit(table, bench_args);
  std::cout << "updates applied: " << protocol.maintainer().stats().updates_applied
            << "/" << protocol.maintainer().stats().degradation_events
            << " events; replicas consistent: "
            << (protocol.replicas_consistent() ? "yes" : "NO") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const mrlc::bench::BenchArgs bench_args = mrlc::bench::parse_bench_args(argc, argv);
  using namespace mrlc;
  bench::print_header("Figs. 11-13",
                      "distributed protocol vs centralized IRA over 100 rounds");

  std::cout << "\n--- paper's degradation rate (cost += 1e-3 nats/round) ---\n";
  run_variant(1e-3, 1113, bench_args);

  std::cout << "\n--- 50x degradation (cost += 0.05 nats/round), exercises "
               "re-parenting ---\n";
  run_variant(0.05, 1114, bench_args);

  std::cout << "\nexpected shape: distributed cost/reliability track the "
               "centralized IRA closely (paper: cost gap ~25 of ~300, "
               "reliability gap <= 0.02); avg messages per update < 10\n";
  return 0;
}
