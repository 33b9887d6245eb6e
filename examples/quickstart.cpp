/// \file quickstart.cpp
/// \brief Five-minute tour of the public API: describe a network, solve
/// MRLC with IRA, inspect the resulting aggregation tree.
///
/// The instance is the paper's own toy example (Fig. 4): a sink and five
/// sensors with a mix of perfect and flaky links.

#include <iostream>

#include "core/solve.hpp"
#include "wsn/metrics.hpp"
#include "wsn/network.hpp"

int main() {
  using namespace mrlc;

  // 1. Describe the WSN: node count, sink id, per-link packet reception
  //    ratios, per-node battery energy (defaults to 3000 J / two AAs).
  wsn::Network net(/*node_count=*/6, /*sink=*/0);
  net.add_link(1, 0, 1.0);
  net.add_link(4, 0, 0.8);
  net.add_link(5, 0, 1.0);
  net.add_link(2, 4, 0.5);
  net.add_link(3, 4, 0.9);
  net.add_link(2, 3, 0.9);

  // 2. Pick the lifetime the deployment must survive (in aggregation
  //    rounds) and run the Iterative Relaxation Algorithm (by default at
  //    the paper's strict bound L', which guarantees the lifetime).
  const double required_rounds = 2.0e6;
  core::SolveRequest request;
  request.bound = required_rounds;
  const core::SolveResult result = core::solve(net, request);

  // 3. Inspect the tree.
  std::cout << "aggregation tree (child -> parent):\n";
  for (wsn::VertexId v = 0; v < net.node_count(); ++v) {
    if (v == result.tree.root()) continue;
    std::cout << "  " << v << " -> " << result.tree.parent(v)
              << "  (link PRR " << net.link_prr(result.tree.parent_edge(v)) << ")\n";
  }
  std::cout << "reliability Q(T): " << result.reliability << '\n'
            << "cost C(T) = -ln Q(T): " << result.cost << '\n'
            << "network lifetime: " << result.lifetime << " rounds"
            << " (required " << required_rounds << ")\n"
            << "bound satisfied: " << (result.meets_bound ? "yes" : "no") << '\n';

  // 4. A bound no tree can meet comes back as a typed status:
  request.bound = 1.0e7;
  const core::SolveResult impossible = core::solve(net, request);
  if (impossible.status == core::SolveStatus::kInfeasible) {
    std::cout << "as expected, a 1e7-round bound is infeasible: "
              << impossible.message << '\n';
  }
  return 0;
}
