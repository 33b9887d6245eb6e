// The benchmark's output checks must accept correct outputs and reject
// corrupted trees, wrong costs and altered data-plane digests.

#include <gtest/gtest.h>

#include <cmath>

#include "checks.hpp"

namespace {

using perfbench::check_digest;
using perfbench::check_golden_cost;
using perfbench::check_tree;

/// Sink 0; links 0-1 (0.9), 1-2 (0.8), 0-2 (0.5), 2-3 (0.95).
mrlc::wsn::Network square() {
  mrlc::wsn::Network net(4);
  net.add_link(0, 1, 0.9);
  net.add_link(1, 2, 0.8);
  net.add_link(0, 2, 0.5);
  net.add_link(2, 3, 0.95);
  for (int v = 0; v < 4; ++v) net.set_initial_energy(v, 3000.0);
  return net;
}

const std::vector<int> kTree = {-1, 0, 1, 2};  // path 0-1-2-3

double tree_cost() {
  return -std::log(0.9) - std::log(0.8) - std::log(0.95);
}

/// Lifetime of a node with one child under the default energy model.
double one_child_lifetime(const mrlc::wsn::Network& net) {
  const auto& e = net.energy_model();
  return 3000.0 / (e.tx_joules + e.rx_joules);
}

TEST(CheckTree, AcceptsValidTree) {
  const auto net = square();
  EXPECT_EQ(check_tree(net, kTree, one_child_lifetime(net), tree_cost()), "");
}

TEST(CheckTree, RejectsParentOverMissingLink) {
  const auto net = square();
  std::vector<int> tree = kTree;
  tree[3] = 1;  // 1-3 is not a link
  EXPECT_NE(check_tree(net, tree, 1.0, tree_cost()), "");
}

TEST(CheckTree, RejectsCycle) {
  const auto net = square();
  std::vector<int> tree = kTree;
  tree[1] = 2;  // 1 -> 2 -> 1 never reaches the sink
  EXPECT_NE(check_tree(net, tree, 1.0, tree_cost()), "");
}

TEST(CheckTree, RejectsWrongSizeAndSinkWithParent) {
  const auto net = square();
  EXPECT_NE(check_tree(net, {-1, 0, 1}, 1.0, tree_cost()), "");
  EXPECT_NE(check_tree(net, {1, 0, 1, 2}, 1.0, tree_cost()), "");
}

TEST(CheckTree, RejectsWrongCost) {
  const auto net = square();
  EXPECT_NE(check_tree(net, kTree, 1.0, tree_cost() + 1e-6), "");
}

TEST(CheckTree, RejectsLifetimeBelowBound) {
  const auto net = square();
  // A bound just above what a one-child node achieves.
  EXPECT_NE(check_tree(net, kTree, one_child_lifetime(net) * 1.001, tree_cost()), "");
}

TEST(CheckGoldenCost, RejectsDriftBeyondTolerance) {
  EXPECT_EQ(check_golden_cost(0.5, 0.5 + 1e-12), "");
  EXPECT_NE(check_golden_cost(0.5, 0.5 + 1e-8), "");
}

TEST(ParentsFromTreeText, ParsesAndRejects) {
  EXPECT_EQ(perfbench::parents_from_tree_text(
                "mrlc-tree v1\nnodes 3\nparent 1 0\nparent 2 1\n"),
            (std::vector<int>{-1, 0, 1}));
  EXPECT_TRUE(perfbench::parents_from_tree_text("garbage").empty());
  EXPECT_TRUE(perfbench::parents_from_tree_text(
                  "mrlc-tree v1\nnodes 2\nparent 5 0\n").empty());
}

TEST(DataplaneDigest, RejectsAlteredResult) {
  mrlc::dist::DataPlaneResult result;
  result.rounds = 60;
  result.detections = 96;
  result.delivery_ratio = 0.97;
  const std::string expected =
      perfbench::digest(perfbench::dataplane_fields_text(result));
  EXPECT_EQ(check_digest("fields", expected, expected), "");

  mrlc::dist::DataPlaneResult altered = result;
  altered.detections = 95;
  EXPECT_NE(check_digest("fields",
                         perfbench::digest(perfbench::dataplane_fields_text(altered)),
                         expected),
            "");
  altered = result;
  altered.delivery_ratio = std::nextafter(0.97, 1.0);  // last bit only
  EXPECT_NE(check_digest("fields",
                         perfbench::digest(perfbench::dataplane_fields_text(altered)),
                         expected),
            "");
}

}  // namespace
