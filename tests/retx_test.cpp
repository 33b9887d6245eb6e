#include <gtest/gtest.h>

#include "baselines/mst_baseline.hpp"
#include "common/rng.hpp"
#include "core/retx_ira.hpp"
#include "helpers.hpp"
#include "radio/depletion_sim.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {
namespace {

using mrlc::testing::small_random_network;

// ---------------------------------------------------- retx-aware metrics --

TEST(RetxMetrics, MatchesHandComputedRates) {
  // Chain 0 <- 1 <- 2 with q = 0.5 everywhere.
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.5);
  net.add_link(1, 2, 0.5);
  const auto tree = wsn::AggregationTree::from_parents(net, {-1, 0, 1});
  const double tx = net.energy_model().tx_joules;
  const double rx = net.energy_model().rx_joules;
  // Node 1: sends through q=0.5 (Tx/0.5) and receives node 2's retries
  // (Rx/0.5).
  EXPECT_NEAR(wsn::node_lifetime_retx(net, tree, 1),
              3000.0 / (tx / 0.5 + rx / 0.5), 1e-6);
  // Node 2 (leaf): only the send term.
  EXPECT_NEAR(wsn::node_lifetime_retx(net, tree, 2), 3000.0 / (tx / 0.5), 1e-6);
  // Sink: only the receive term.
  EXPECT_NEAR(wsn::node_lifetime_retx(net, tree, 0), 3000.0 / (rx / 0.5), 1e-6);
}

TEST(RetxMetrics, PerfectLinksReduceToEq1) {
  mrlc::testing::ToyNetwork toy;
  // Build a tree using only q = 1.0 links plus the 0.8 link (4, 0).
  const auto tree = toy.tree_b();
  for (int v = 0; v < toy.net.node_count(); ++v) {
    // With q = 1 links the retx lifetime equals Eq. 1's (modulo the sink's
    // Tx term, which Eq. 1 charges and the retx model does not).
    if (v == toy.net.sink()) continue;
    double q_ok = true;
    if (toy.net.link_prr(tree.parent_edge(v)) < 1.0) q_ok = false;
    for (int c = 0; c < toy.net.node_count(); ++c) {
      if (tree.parent(c) == v && toy.net.link_prr(tree.parent_edge(c)) < 1.0) {
        q_ok = false;
      }
    }
    if (q_ok) {
      EXPECT_NEAR(wsn::node_lifetime_retx(toy.net, tree, v),
                  wsn::node_lifetime(toy.net, tree, v), 1e-6)
          << "node " << v;
    }
  }
}

TEST(RetxMetrics, AgreesWithDepletionSimulation) {
  Rng rng(71);
  const wsn::Network net = small_random_network(8, 0.7, rng, 0.4, 0.95);
  const auto tree = mrlc::testing::random_tree(net, rng);
  radio::RetxPolicy retx;
  retx.enabled = true;
  Rng sim_rng(72);
  const radio::DepletionResult dep =
      radio::simulate_depletion(net, tree, retx, 5000, sim_rng);
  const double analytic = wsn::network_lifetime_retx(net, tree);
  EXPECT_NEAR(dep.rounds_survived, analytic, analytic * 0.05);
}

// -------------------------------------------------------- retx-aware IRA --

TEST(RetxIra, ReturnedTreeMeetsTheRetxBound) {
  Rng rng(73);
  int solved = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const wsn::Network net = small_random_network(9, 0.6, rng, 0.4, 0.99);
    // A bound around half of what the best single chain could do.
    const double bound =
        3000.0 / (net.energy_model().tx_joules / 0.6) * 0.25;
    try {
      const SolveResult res = retx_aware_ira(net, bound);
      ++solved;
      EXPECT_TRUE(res.meets_bound) << "trial " << trial;
      EXPECT_GE(res.bound_metric, bound * (1 - 1e-9));
      EXPECT_EQ(res.tree.edge_ids().size(),
                static_cast<std::size_t>(net.node_count() - 1));
    } catch (const InfeasibleError&) {
      // conservative rows may refuse borderline instances
    }
  }
  EXPECT_GT(solved, 5);
}

TEST(RetxIra, AvoidsLowQualityHubsThatPlainIraTolerates) {
  // A hub with mediocre links: under Eq. 1 its children count is all that
  // matters, but under the retx model every mediocre child link burns the
  // hub's battery.  Construct so the retx-aware solver must route around.
  wsn::Network net(5, 0);
  net.add_link(0, 1, 0.95);
  net.add_link(1, 2, 0.35);  // cheap-ish in count, expensive in retx energy
  net.add_link(1, 3, 0.35);
  net.add_link(1, 4, 0.35);
  net.add_link(2, 3, 0.90);
  net.add_link(3, 4, 0.90);
  net.add_link(0, 2, 0.80);
  const double tx = net.energy_model().tx_joules;
  // Bound tight enough that node 1 cannot afford three 0.35-quality
  // children (rate 3*Rx/0.35 + Tx/0.95) but a chain is fine.
  const double bound = 3000.0 / (tx / 0.35) * 0.9;
  const SolveResult res = retx_aware_ira(net, bound);
  EXPECT_TRUE(res.meets_bound);
  EXPECT_LT(res.tree.children_count(1), 3);
}

TEST(RetxIra, InfeasibleWhenEvenALeafBlowsTheBudget) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.5);
  net.add_link(1, 2, 0.5);
  // Node 2 must send through q = 0.5: rate >= Tx/0.5.  Ask for more.
  const double max_leaf_lifetime = 3000.0 / (net.energy_model().tx_joules / 0.5);
  EXPECT_THROW(retx_aware_ira(net, max_leaf_lifetime * 1.1), InfeasibleError);
}

TEST(RetxIra, LooseBoundReturnsTheMst) {
  Rng rng(74);
  const wsn::Network net = small_random_network(8, 0.7, rng, 0.5, 1.0);
  const SolveResult res = retx_aware_ira(net, 1.0);
  const baselines::MstResult mst = baselines::mst_baseline(net);
  EXPECT_NEAR(res.cost, mst.cost, 1e-9);
}

TEST(RetxIra, RejectsBadInput) {
  mrlc::testing::ToyNetwork toy;
  EXPECT_THROW(retx_aware_ira(toy.net, 0.0), std::invalid_argument);
  wsn::Network disconnected(3, 0);
  disconnected.add_link(0, 1, 0.9);
  EXPECT_THROW(retx_aware_ira(disconnected, 1.0), InfeasibleError);
}

}  // namespace
}  // namespace mrlc::core
