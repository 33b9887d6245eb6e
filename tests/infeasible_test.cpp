/// \file infeasible_test.cpp
/// \brief The "no solution exists" contract, end to end: disconnected
/// topologies and unachievable lifetime bounds must surface as typed
/// `InfeasibleError`s (or `nullopt` / a typed status where the API says
/// so) from every solver entry point — with a useful message and without
/// leaving partial state behind that breaks a later feasible solve.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "baselines/mst_baseline.hpp"
#include "core/branch_bound.hpp"
#include "core/feasibility.hpp"
#include "core/ira.hpp"
#include "core/retx_ira.hpp"
#include "core/solve.hpp"
#include "helpers.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {
namespace {

/// 4 nodes, one link: nodes 2 and 3 can never reach the sink.
wsn::Network disconnected_network() {
  wsn::Network net(4, 0);
  net.add_link(0, 1, 0.9);
  return net;
}

/// A lifetime no node can reach even as a leaf: with 3000 J batteries and
/// Tx = 1.6e-4 J the ceiling is 3000 / 1.6e-4 = 1.875e7 rounds.
constexpr double kAbsurdBound = 1e9;

/// A path 0-1-2-3: the two interior nodes must each relay a child, so the
/// network lifetime tops out at I / (Tx + Rx) ~ 1.07e7 rounds even though
/// every node could individually idle as a leaf until 1.875e7.
wsn::Network path_network() {
  wsn::Network net(4, 0);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.9);
  net.add_link(2, 3, 0.9);
  return net;
}

TEST(Infeasible, IraRejectsDisconnectedTopology) {
  const wsn::Network net = disconnected_network();
  for (const BoundMode mode : {BoundMode::kPaperStrict, BoundMode::kDirect}) {
    IraOptions options;
    options.bound_mode = mode;
    try {
      IterativeRelaxation(options).solve(net, 100.0);
      FAIL() << "expected InfeasibleError";
    } catch (const InfeasibleError& e) {
      EXPECT_NE(std::string(e.what()).find("connected"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Infeasible, IraRejectsUnachievableBoundInBothModes) {
  const testing::ToyNetwork toy;
  // kPaperStrict: L' = I_min*LC / (I_min - 2*Rx*LC) is undefined here.
  IraOptions strict;
  strict.bound_mode = BoundMode::kPaperStrict;
  EXPECT_THROW(IterativeRelaxation(strict).solve(toy.net, kAbsurdBound),
               InfeasibleError);
  // kDirect: the LP itself is infeasible (every children cap is negative).
  IraOptions direct;
  direct.bound_mode = BoundMode::kDirect;
  EXPECT_THROW(IterativeRelaxation(direct).solve(toy.net, kAbsurdBound),
               InfeasibleError);
}

TEST(Infeasible, IraRejectsBoundBeyondRelayCapacity) {
  // Leaf-achievable but relay-infeasible: the degree rows, not the
  // per-node ceilings, must carry the proof.
  const wsn::Network net = path_network();
  IraOptions direct;
  direct.bound_mode = BoundMode::kDirect;
  EXPECT_THROW(IterativeRelaxation(direct).solve(net, 1.5e7), InfeasibleError);
  // The same instance is solvable at its MST lifetime.
  const double feasible = baselines::mst_baseline(net).lifetime;
  EXPECT_NO_THROW(IterativeRelaxation(direct).solve(net, feasible));
}

TEST(Infeasible, SolverObjectSurvivesAnInfeasibleSolve) {
  // The solver is stateless across calls: an infeasible throw must not
  // poison a later feasible solve on the very same object.
  const testing::ToyNetwork toy;
  IraOptions options;
  options.bound_mode = BoundMode::kDirect;
  const IterativeRelaxation solver(options);
  EXPECT_THROW(solver.solve(toy.net, kAbsurdBound), InfeasibleError);
  const double feasible = baselines::mst_baseline(toy.net).lifetime;
  const IraResult result = solver.solve(toy.net, feasible);
  EXPECT_TRUE(result.meets_bound);
  EXPECT_EQ(result.tree.node_count(), toy.net.node_count());
}

TEST(Infeasible, RetxIraRejectsDisconnectedAndUnachievable) {
  EXPECT_THROW(retx_aware_ira(disconnected_network(), 100.0),
               InfeasibleError);
  const testing::ToyNetwork toy;
  EXPECT_THROW(retx_aware_ira(toy.net, kAbsurdBound), InfeasibleError);
}

TEST(Infeasible, FeasibilityProbesRefuteAbsurdBounds) {
  const testing::ToyNetwork toy;
  EXPECT_FALSE(lp_lifetime_feasible(toy.net, kAbsurdBound));
  EXPECT_THROW(lp_lifetime_feasible(disconnected_network(), 100.0),
               InfeasibleError);

  const LifetimeBracket bracket = bracket_max_lifetime(toy.net);
  EXPECT_GT(bracket.lower, 0.0);
  EXPECT_LE(bracket.lower, bracket.upper);
  // Anything above the LP-certified ceiling must be rejected by IRA...
  IraOptions direct;
  direct.bound_mode = BoundMode::kDirect;
  EXPECT_THROW(IterativeRelaxation(direct).solve(toy.net, bracket.upper * 2.0),
               InfeasibleError);
  // ...and the constructive lower bound must actually solve.
  EXPECT_NO_THROW(IterativeRelaxation(direct).solve(toy.net, bracket.lower));
}

TEST(Infeasible, BranchBoundReportsNoTreeOrThrowsTyped) {
  // The exact solver's "no solution" channel is nullopt for unachievable
  // bounds and InfeasibleError (from validate) for broken topologies.
  const testing::ToyNetwork toy;
  EXPECT_EQ(branch_bound_variant(VariantId::kMrlc, toy.net, kAbsurdBound),
            std::nullopt);
  EXPECT_THROW(
      branch_bound_variant(VariantId::kMrlc, disconnected_network(), 100.0),
      InfeasibleError);
}

TEST(Infeasible, AnytimeTurnsInfeasibilityIntoTypedStatus) {
  // The front door never throws for bad instances, with or without a
  // budget: both flavours of infeasibility come back as kInfeasible with
  // the diagnosis in `message`.
  Budget unlimited;
  for (Budget* budget : {static_cast<Budget*>(nullptr), &unlimited}) {
    SolveRequest request;
    request.bound = 100.0;
    request.ira.bound_mode = BoundMode::kDirect;
    request.ira.budget = budget;
    const SolveResult disconnected = solve(disconnected_network(), request);
    EXPECT_EQ(disconnected.status, SolveStatus::kInfeasible);
    EXPECT_NE(disconnected.message.find("connected"), std::string::npos)
        << disconnected.message;

    const testing::ToyNetwork toy;
    request.bound = kAbsurdBound;
    const SolveResult unachievable = solve(toy.net, request);
    EXPECT_EQ(unachievable.status, SolveStatus::kInfeasible);
    EXPECT_FALSE(unachievable.message.empty());
  }
}

}  // namespace
}  // namespace mrlc::core
