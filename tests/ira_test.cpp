#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/exact.hpp"
#include "core/ira.hpp"
#include "helpers.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {
namespace {

using mrlc::testing::small_random_network;

// ------------------------------------------------------------- L' bound --

TEST(StrictBound, MatchesFormula) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 1.0);
  net.add_link(1, 2, 1.0);
  // I_min = 3000, Rx = 1.2e-4: L' = I_min*LC / (I_min - 2*Rx*LC).
  const double lc = 1e6;
  const double expected = 3000.0 * lc / (3000.0 - 2.0 * 1.2e-4 * lc);
  EXPECT_NEAR(IterativeRelaxation::strict_bound(net, lc), expected, 1e-6);
  EXPECT_GT(IterativeRelaxation::strict_bound(net, lc), lc);  // stricter
}

TEST(StrictBound, ThrowsWhenHeadroomVanishes) {
  wsn::Network net(2, 0);
  net.add_link(0, 1, 1.0);
  // I_min - 2*Rx*LC <= 0  <=>  LC >= 3000 / (2 * 1.2e-4) = 1.25e7.
  EXPECT_THROW(IterativeRelaxation::strict_bound(net, 1.3e7), InfeasibleError);
  EXPECT_THROW(IterativeRelaxation::strict_bound(net, 0.0), std::invalid_argument);
}

// ----------------------------------------------------------- exact MRLC --

TEST(ExactMrlc, RespectsLifetimeBound) {
  mrlc::testing::ToyNetwork toy;
  // Unconstrained optimum uses the MST; a tight bound forbids hub nodes.
  const auto loose = exact_mrlc(toy.net, 1.0);
  ASSERT_TRUE(loose.has_value());
  EXPECT_GT(loose->reliability, 0.0);
  // With the default model, lifetime of a node with c children is
  // 3000/(1.6e-4 + 1.2e-4 c).  A bound just above the 3-children lifetime
  // forbids any node from keeping 3 children.
  const double three_children = toy.net.energy_model().node_lifetime(3000.0, 3);
  const auto tight = exact_mrlc(toy.net, three_children * 1.01);
  if (tight.has_value()) {
    EXPECT_GE(tight->lifetime, three_children * 1.01);
    for (int v = 0; v < toy.net.node_count(); ++v) {
      EXPECT_LE(tight->tree.children_count(v), 2);
    }
  }
}

TEST(ExactMrlc, NulloptWhenNoTreeQualifies) {
  // Path network: node 1 must have exactly 1 child; bound above the
  // 1-child lifetime is unachievable.
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.9);
  const double one_child = net.energy_model().node_lifetime(3000.0, 1);
  EXPECT_FALSE(exact_mrlc(net, one_child * 1.01).has_value());
  EXPECT_TRUE(exact_mrlc(net, one_child * 0.99).has_value());
}

TEST(ExactMaxLifetime, PrefersBalancedTrees) {
  // Star + path: the star center would have 3 children; the max-lifetime
  // tree spreads children across nodes when alternatives exist.
  wsn::Network net(4, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(0, 2, 0.9);
  net.add_link(0, 3, 0.9);
  net.add_link(1, 2, 0.9);
  net.add_link(2, 3, 0.9);
  const auto best = exact_max_lifetime(net);
  ASSERT_TRUE(best.has_value());
  int max_children = 0;
  for (int v = 0; v < 4; ++v) {
    max_children = std::max(max_children, best->tree.children_count(v));
  }
  EXPECT_LE(max_children, 2);
}

TEST(ExactMrlc, GuardsEnumerationBudget) {
  Rng rng(1);
  const wsn::Network net = small_random_network(9, 0.9, rng);
  EXPECT_THROW(exact_mrlc(net, 1.0, /*max_trees=*/10), std::invalid_argument);
}

// ------------------------------------------------------------------ IRA --

TEST(Ira, ReturnsMstWhenBoundIsLoose) {
  mrlc::testing::ToyNetwork toy;
  const IraResult res = IterativeRelaxation().solve(toy.net, 1.0);
  EXPECT_TRUE(res.meets_bound);
  // Loose bound: IRA should match the unconstrained optimum (the MST),
  // which is tree (b) of Fig. 4 with reliability 0.648.
  EXPECT_NEAR(res.reliability, 0.648, 1e-9);
}

TEST(Ira, HonorsTightBoundOnStarvedNode) {
  // Starve node 4 so its children bound binds: under this LC it may keep
  // at most one of its two potential children (2 and 3), forcing the
  // 4 -> 3 -> 2 chain.  The sink's three forced children stay feasible.
  mrlc::testing::ToyNetwork toy;
  toy.net.set_initial_energy(4, 1500.0);
  const double bound =
      toy.net.energy_model().node_lifetime(1500.0, 1) * 0.99;  // ~1 child at node 4
  const auto exact = exact_mrlc(toy.net, bound);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(exact->tree.children_count(4), 1);

  IraOptions options;
  options.bound_mode = BoundMode::kDirect;  // strict L' is undefined here
  const IraResult res = IterativeRelaxation(options).solve(toy.net, bound);
  // Direct-mode contract: cost at most OPT(LC), children violation <= 2.
  EXPECT_LE(res.cost, exact->cost + 1e-9);
  for (int v = 0; v < toy.net.node_count(); ++v) {
    EXPECT_LE(static_cast<double>(res.tree.children_count(v)),
              toy.net.max_children_real(v, bound) + 2.0 + 1e-6);
  }
}

TEST(Ira, ThrowsOnInfeasibleBound) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.9);
  const double one_child = net.energy_model().node_lifetime(3000.0, 1);
  EXPECT_THROW(IterativeRelaxation().solve(net, one_child * 1.01), InfeasibleError);
}

TEST(Ira, ThrowsOnDisconnectedNetwork) {
  wsn::Network net(4, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(2, 3, 0.9);
  EXPECT_THROW(IterativeRelaxation().solve(net, 1.0), InfeasibleError);
}

TEST(Ira, StatsAreReported) {
  mrlc::testing::ToyNetwork toy;
  const IraResult res = IterativeRelaxation().solve(toy.net, 1.0);
  EXPECT_GE(res.stats.outer_iterations, 1);
  EXPECT_GE(res.stats.lp_solves, 1);
  EXPECT_EQ(res.stats.constraints_removed, toy.net.node_count());
}

/// The paper's guarantee: IRA's cost is at most OPT(L') — the optimum under
/// the *stricter* bound — and at least OPT(LC).  Verified against brute
/// force on random instances.
TEST(Ira, CostSandwichedBetweenOptima) {
  Rng rng(2024);
  int feasible_instances = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const wsn::Network net = small_random_network(7, 0.7, rng, 0.6, 1.0);
    // A bound that bites but leaves the strict L' (about two children
    // tighter) usually satisfiable: just under the 5-children lifetime.
    const double bound = net.energy_model().node_lifetime(3000.0, 5) * 0.95;

    const double strict = IterativeRelaxation::strict_bound(net, bound);
    const auto opt_lc = exact_mrlc(net, bound);
    const auto opt_strict = exact_mrlc(net, strict);

    IraResult res;
    try {
      res = IterativeRelaxation().solve(net, bound);
    } catch (const InfeasibleError&) {
      // IRA works with the stricter L'; it may declare infeasibility when
      // only the LC-optimum exists.  That is within its contract.
      EXPECT_FALSE(opt_strict.has_value()) << "trial " << trial;
      continue;
    }
    ++feasible_instances;
    ASSERT_TRUE(opt_lc.has_value()) << "trial " << trial;
    EXPECT_TRUE(res.meets_bound) << "trial " << trial;
    EXPECT_GE(res.lifetime, bound) << "trial " << trial;
    // Sandwich: OPT(LC) <= cost(IRA) <= OPT(L').
    EXPECT_GE(res.cost, opt_lc->cost - 1e-9) << "trial " << trial;
    if (opt_strict.has_value()) {
      EXPECT_LE(res.cost, opt_strict->cost + 1e-6) << "trial " << trial;
    }
  }
  EXPECT_GT(feasible_instances, 10);  // the sweep must actually test something
}

/// Loosening the bound can only decrease (or keep) the achievable cost.
TEST(Ira, CostMonotoneInBound) {
  Rng rng(555);
  const wsn::Network net = small_random_network(8, 0.8, rng, 0.7, 1.0);
  const double base = net.energy_model().node_lifetime(3000.0, 3);
  double previous_cost = -1.0;
  for (const double factor : {1.3, 1.0, 0.7, 0.4}) {  // loosening
    IraResult res;
    try {
      res = IterativeRelaxation().solve(net, base * factor);
    } catch (const InfeasibleError&) {
      EXPECT_LT(previous_cost, 0.0) << "feasibility must be monotone";
      continue;
    }
    if (previous_cost >= 0.0) {
      EXPECT_LE(res.cost, previous_cost + 1e-6);
    }
    previous_cost = res.cost;
  }
}

TEST(Ira, TreeIsAlwaysValidSpanningTree) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const wsn::Network net = small_random_network(8, 0.6, rng, 0.5, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, 4);
    try {
      const IraResult res = IterativeRelaxation().solve(net, bound);
      EXPECT_EQ(res.tree.node_count(), net.node_count());
      EXPECT_EQ(res.tree.root(), net.sink());
      EXPECT_EQ(res.tree.edge_ids().size(),
                static_cast<std::size_t>(net.node_count() - 1));
      EXPECT_NEAR(res.cost, wsn::tree_cost(net, res.tree), 1e-9);
      EXPECT_NEAR(res.reliability, wsn::tree_reliability(net, res.tree), 1e-12);
    } catch (const InfeasibleError&) {
      // acceptable outcome for tight draws
    }
  }
}

TEST(Ira, FallbackDisabledStillSolvesEasyCases) {
  // An easy instance never needs the numerical slack fallback.
  mrlc::testing::ToyNetwork toy;
  const IraResult res = IterativeRelaxation().solve(toy.net, 1.0);
  EXPECT_TRUE(res.meets_bound);
  EXPECT_FALSE(res.stats.used_fallback);
}

TEST(Ira, RejectsNonPositiveBound) {
  mrlc::testing::ToyNetwork toy;
  EXPECT_THROW(IterativeRelaxation().solve(toy.net, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace mrlc::core

// --------------------------------------------------------- branch-bound --

#include "core/branch_bound.hpp"
#include "graph/mst.hpp"

namespace mrlc::core {
namespace {

TEST(BranchBound, AgreesWithEnumerationOnSmallInstances) {
  Rng rng(3030);
  int compared = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const wsn::Network net = mrlc::testing::small_random_network(7, 0.7, rng, 0.5, 1.0);
    for (const int children : {2, 3, 5}) {
      const double bound = net.energy_model().node_lifetime(3000.0, children) * 0.99;
      const auto enumerated = exact_mrlc(net, bound);
      const auto bb = branch_bound_variant(VariantId::kMrlc, net, bound);
      ASSERT_EQ(enumerated.has_value(), bb.has_value())
          << "trial " << trial << " children " << children;
      if (enumerated.has_value()) {
        EXPECT_NEAR(bb->cost, enumerated->cost, 1e-9)
            << "trial " << trial << " children " << children;
        EXPECT_GE(bb->lifetime, bound * (1 - 1e-9));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 20);
}

TEST(BranchBound, HandlesPaperScaleInstances) {
  // 16 nodes, dense: enumeration is hopeless, branch-and-bound is not.
  Rng rng(3031);
  const wsn::Network net = mrlc::testing::small_random_network(16, 0.7, rng, 0.9, 1.0);
  const double bound = net.energy_model().node_lifetime(3000.0, 4) * 0.99;
  const auto bb = branch_bound_variant(VariantId::kMrlc, net, bound);
  ASSERT_TRUE(bb.has_value());
  EXPECT_GE(bb->lifetime, bound * (1 - 1e-9));
  // Sandwich against the LP-based solver.
  IraOptions options;
  options.bound_mode = BoundMode::kDirect;
  const IraResult ira = IterativeRelaxation(options).solve(net, bound);
  EXPECT_LE(ira.cost, bb->cost + 1e-6) << "IRA has +2 slack, can only be cheaper";
  const auto mst = graph::prim_mst(net.topology(), 0);
  EXPECT_GE(bb->cost, mst->total_weight - 1e-9);
}

TEST(BranchBound, NulloptWhenNoTreeQualifies) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.9);
  const double one_child = net.energy_model().node_lifetime(3000.0, 1);
  EXPECT_FALSE(branch_bound_variant(VariantId::kMrlc, net, one_child * 1.01)
                   .has_value());
  EXPECT_TRUE(branch_bound_variant(VariantId::kMrlc, net, one_child * 0.99)
                  .has_value());
}

TEST(BranchBound, NodeBudgetGuard) {
  Rng rng(3000);
  const wsn::Network net = mrlc::testing::small_random_network(12, 0.9, rng, 0.5, 1.0);
  BranchBoundOptions options;
  options.max_nodes_explored = 5;
  // A binding bound (max ~2 children) forces branching: the greedy warm
  // start is not provably optimal, so the tiny budget must trip.
  const double bound = net.energy_model().node_lifetime(3000.0, 2) * 0.99;
  EXPECT_THROW(branch_bound_variant(VariantId::kMrlc, net, bound, options),
               std::invalid_argument);
}

TEST(BranchBound, IraStrictModeCostAtMostBranchBoundAtStrictBound) {
  // cost(IRA strict) <= OPT(L'): verify with branch-and-bound computing
  // OPT at the strict bound.
  Rng rng(3033);
  int checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const wsn::Network net = mrlc::testing::small_random_network(9, 0.7, rng, 0.6, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, 6) * 0.95;
    IraResult res;
    try {
      res = IterativeRelaxation().solve(net, bound);
    } catch (const InfeasibleError&) {
      continue;
    }
    const double strict = IterativeRelaxation::strict_bound(net, bound);
    const auto opt_strict = branch_bound_variant(VariantId::kMrlc, net, strict);
    if (!opt_strict.has_value()) continue;
    EXPECT_LE(res.cost, opt_strict->cost + 1e-6) << "trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

}  // namespace
}  // namespace mrlc::core
