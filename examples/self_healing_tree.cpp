/// \file self_healing_tree.cpp
/// \brief The distributed updating protocol in action (Section VI): a
/// deployed network whose link qualities drift over time, with every node
/// maintaining the shared Prüfer code and repairing the tree locally.
///
/// The walkthrough narrates individual events: a tree link degrading (the
/// child re-parents via the Link-Getting-Worse scheme), a dormant link
/// recovering (ILU chases the improvement around the induced cycle), and
/// finally node deaths under *lossy* control floods, where the orphaned
/// subtrees reattach and the replicas re-converge via anti-entropy resync.

#include <iomanip>
#include <iostream>

#include "baselines/aaml.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "distributed/failure.hpp"
#include "distributed/simulator.hpp"
#include "prufer/codec.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

namespace {

void print_code(const mrlc::prufer::Code& code) {
  std::cout << "(";
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << code[i];
  }
  std::cout << ")";
}

}  // namespace

int main() {
  using namespace mrlc;

  // --- Build and solve the initial deployment. ---------------------------
  scenario::DflSystem sys = scenario::make_dfl_system();
  const baselines::AamlResult aaml =
      baselines::aaml(scenario::filter_links(sys.network, 0.95));
  core::SolveRequest request;
  request.bound = aaml.lifetime;
  request.ira.bound_mode = core::BoundMode::kDirect;
  const core::SolveResult initial = core::solve(sys.network, request);

  dist::ProtocolSimulator protocol(sys.network, initial.tree, aaml.lifetime);
  std::cout << "initial tree: reliability " << std::setprecision(4)
            << initial.reliability << ", lifetime " << initial.lifetime
            << " rounds\nsink broadcasts Prüfer code ";
  print_code(protocol.maintainer().code());
  std::cout << " — all " << sys.network.node_count()
            << " replicas seeded (bootstrap flood: "
            << protocol.stats().flood_transmissions << " transmissions)\n\n";

  Rng rng(77);

  // --- Event 1: a tree link turns bad. ------------------------------------
  const auto tree_edges = protocol.tree().edge_ids();
  const wsn::EdgeId victim = tree_edges[tree_edges.size() / 2];
  const graph::Edge& ve = sys.network.topology().edge(victim);
  std::cout << "EVENT: link (" << ve.u << ", " << ve.v << ") degrades "
            << sys.network.link_prr(victim) << " -> 0.40\n";
  sys.network.set_link_prr(victim, 0.40);
  if (protocol.on_link_degraded(sys.network, victim)) {
    std::cout << "  child re-parented via the Link-Getting-Worse scheme; new code ";
    print_code(protocol.maintainer().code());
    std::cout << "\n  (" << protocol.stats().transmissions_per_event.back()
              << " flood transmissions; replicas consistent: "
              << (protocol.replicas_consistent() ? "yes" : "NO") << ")\n";
  } else {
    std::cout << "  no better reconnection available; tree kept\n";
  }

  // --- Event 2: a dormant link recovers. ----------------------------------
  // Find a non-tree link and make it excellent.
  std::vector<bool> in_tree(static_cast<std::size_t>(sys.network.link_count()), false);
  for (wsn::EdgeId id : protocol.tree().edge_ids()) {
    in_tree[static_cast<std::size_t>(id)] = true;
  }
  for (wsn::EdgeId id = 0; id < sys.network.link_count(); ++id) {
    if (in_tree[static_cast<std::size_t>(id)]) continue;
    if (sys.network.link_prr(id) > 0.9) continue;
    const graph::Edge& e = sys.network.topology().edge(id);
    std::cout << "\nEVENT: dormant link (" << e.u << ", " << e.v << ") recovers "
              << sys.network.link_prr(id) << " -> 0.997\n";
    sys.network.set_link_prr(id, 0.997);
    if (protocol.on_link_improved(sys.network, id)) {
      std::cout << "  ILU adopted it (possibly displacing a chain of links); new code ";
      print_code(protocol.maintainer().code());
      std::cout << '\n';
    } else {
      std::cout << "  ILU found no profitable swap (lifetime budget or cost)\n";
    }
    break;
  }

  // --- Long-run churn. -----------------------------------------------------
  std::cout << "\nrunning 200 churn events (random degradations + recoveries)...\n";
  for (int event = 0; event < 200; ++event) {
    const wsn::EdgeId link =
        static_cast<wsn::EdgeId>(rng.uniform_int(0, sys.network.link_count() - 1));
    if (rng.bernoulli(0.5)) {
      sys.network.set_link_prr(link,
                               std::max(0.05, sys.network.link_prr(link) * 0.8));
      protocol.on_link_degraded(sys.network, link);
    } else {
      sys.network.set_link_prr(link,
                               std::min(0.997, sys.network.link_prr(link) * 1.15));
      protocol.on_link_improved(sys.network, link);
    }
  }
  const auto& stats = protocol.maintainer().stats();
  const double reliability = wsn::tree_reliability(sys.network, protocol.tree());
  const double lifetime = wsn::network_lifetime(sys.network, protocol.tree());
  std::cout << "after churn: reliability " << reliability << ", lifetime " << lifetime
            << " rounds (constraint " << protocol.maintainer().lifetime_bound()
            << ": "
            << (lifetime >= protocol.maintainer().lifetime_bound() ? "still met"
                                                                   : "violated")
            << ")\n"
            << "protocol work: " << stats.updates_applied << " updates over "
            << stats.degradation_events + stats.improvement_events << " events, "
            << protocol.stats().flood_transmissions
            << " flood transmissions total; replicas consistent: "
            << (protocol.replicas_consistent() ? "yes" : "NO") << '\n';

  // --- Node failures under lossy control floods. ---------------------------
  // A fresh G(30, 0.15) deployment where control packets themselves are
  // dropped with the link's PRR: floods retransmit, and gaps left by lost
  // deliveries are closed by digest beacons + anti-entropy pulls.
  std::cout << "\n--- node failures, lossy control plane ---\n";
  Rng net_rng(4242);
  scenario::RandomNetworkConfig net_config;
  net_config.node_count = 30;
  net_config.link_probability = 0.15;
  net_config.prr_min = 0.6;
  net_config.prr_max = 0.99;
  wsn::Network net = scenario::make_random_network(net_config, net_rng);
  const double bound = net.energy_model().node_lifetime(3000.0, 8);
  request.bound = bound;
  const core::SolveResult start = core::solve(net, request);

  dist::FloodOptions flood;
  flood.lossy = true;
  flood.control_retx = 2;
  flood.seed = 4243;
  dist::ProtocolSimulator lossy(net, start.tree, bound, {}, flood);

  Rng fault_rng(4244);
  const dist::FailureSchedule schedule =
      dist::random_crash_schedule(net, 3, 500.0, fault_rng);
  for (const dist::FailureEvent& event : schedule.events) {
    std::cout << "EVENT: node " << event.node << " dies at t=" << std::fixed
              << std::setprecision(1) << event.time << '\n' << std::defaultfloat
              << std::setprecision(4);
    const dist::RepairOutcome outcome = lossy.on_node_failed(net, event.node);
    switch (outcome.status) {
      case dist::RepairStatus::kHealed:
        std::cout << "  healed: " << outcome.reattached_subtrees
                  << " orphaned subtree(s) reattached";
        break;
      case dist::RepairStatus::kHealedDegraded:
        std::cout << "  healed with a relaxed lifetime bound ("
                  << outcome.effective_bound << " rounds)";
        break;
      case dist::RepairStatus::kPartitioned:
        std::cout << "  PARTITIONED: " << outcome.detached.size()
                  << " node(s) unreachable under the bound";
        break;
    }
    std::cout << " (" << outcome.cascade_moves << " cascade moves)\n";
  }
  const dist::SimulatorStats& lstats = lossy.stats();
  std::cout << "lossy control plane: " << lstats.control_messages()
            << " messages (" << lstats.flood_transmissions << " flood, "
            << lstats.digest_beacons << " digest, "
            << lstats.resync_requests + lstats.resync_responses << " resync), "
            << lstats.flood_deliveries_missed << " deliveries lost, "
            << lstats.resync_rounds << " anti-entropy rounds\n"
            << "replicas consistent after resync: "
            << (lossy.replicas_consistent() ? "yes" : "NO") << '\n';
  return 0;
}
