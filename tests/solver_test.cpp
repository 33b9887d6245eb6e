#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/feasibility.hpp"
#include "core/ira.hpp"
#include "core/solve.hpp"
#include "helpers.hpp"
#include "wsn/metrics.hpp"

// The bound-mode policy of `core::solve` (kAuto: strict first, then the
// direct fallback, else infeasible with the achievable bracket) and its
// branch-and-bound certification.  The suite keeps the name of the facade
// these rules came from.

namespace mrlc::core {
namespace {

using mrlc::testing::small_random_network;

SolveResult solve_auto(const wsn::Network& net, double bound,
                       bool certify = false) {
  SolveRequest request;
  request.bound = bound;
  request.ira.bound_mode = BoundMode::kAuto;
  request.certify = certify;
  return solve(net, request);
}

TEST(MrlcSolver, UsesStrictModeWhenItWorks) {
  mrlc::testing::ToyNetwork toy;
  const SolveResult result = solve_auto(toy.net, 1.0e6);
  EXPECT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_EQ(result.bound_mode, BoundMode::kPaperStrict);
  EXPECT_TRUE(result.meets_bound);
  EXPECT_FALSE(result.exact_cost.has_value());
}

TEST(MrlcSolver, FallsBackToDirectWhenStrictIsInfeasible) {
  // A bound near the max achievable: strict L' explodes, direct works.
  Rng rng(201);
  int fallbacks = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const wsn::Network net = small_random_network(9, 0.7, rng, 0.6, 1.0);
    const LifetimeBracket bracket = bracket_max_lifetime(net);
    const SolveResult result = solve_auto(net, bracket.lower * 0.999);
    // LP-infeasible at the constructive bound cannot happen.
    ASSERT_EQ(result.status, SolveStatus::kOptimal) << result.message;
    if (result.bound_mode == BoundMode::kDirect) ++fallbacks;
    // Either way the result is a valid spanning tree.
    EXPECT_EQ(result.tree.edge_ids().size(),
              static_cast<std::size_t>(net.node_count() - 1));
  }
  EXPECT_GT(fallbacks, 5) << "near-max bounds should usually need the fallback";
}

TEST(MrlcSolver, InfeasibleErrorCarriesAchievableBracket) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.9);
  const double unachievable =
      net.energy_model().node_lifetime(3000.0, 1) * 1.05;
  const SolveResult result = solve_auto(net, unachievable);
  EXPECT_EQ(result.status, SolveStatus::kInfeasible);
  EXPECT_NE(result.message.find("achievable lifetime is in ["),
            std::string::npos)
      << result.message;
}

TEST(MrlcSolver, CertificationReportsGap) {
  Rng rng(203);
  for (int trial = 0; trial < 5; ++trial) {
    const wsn::Network net = small_random_network(8, 0.7, rng, 0.6, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, 6);
    const SolveResult result = solve_auto(net, bound, /*certify=*/true);
    ASSERT_TRUE(result.exact_cost.has_value());
    // Strict-mode result can exceed the LC-optimum (it solves at L'), but
    // never undercut it; the exact optimum becomes the dual bound.
    EXPECT_GE(result.cost - *result.exact_cost, -1e-9);
    EXPECT_DOUBLE_EQ(result.dual_bound, *result.exact_cost);
    EXPECT_NEAR(result.gap, result.cost - *result.exact_cost, 1e-9);
  }
}

TEST(MrlcSolver, RejectsBadInput) {
  mrlc::testing::ToyNetwork toy;
  EXPECT_THROW(solve_auto(toy.net, 0.0), std::invalid_argument);
  wsn::Network disconnected(3, 0);
  disconnected.add_link(0, 1, 0.9);
  EXPECT_EQ(solve_auto(disconnected, 1.0).status, SolveStatus::kInfeasible);
  // kAuto is a front-door policy; the raw engine refuses it.
  IraOptions options;
  options.bound_mode = BoundMode::kAuto;
  EXPECT_THROW(IterativeRelaxation(options).solve(toy.net, 1.0e6),
               std::invalid_argument);
}

}  // namespace
}  // namespace mrlc::core
