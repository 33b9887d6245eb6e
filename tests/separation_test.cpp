#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/lp_formulation.hpp"
#include "core/separation.hpp"
#include "graph/enumeration.hpp"
#include "graph/mst.hpp"
#include "graph/traversal.hpp"
#include "lp/simplex.hpp"

namespace mrlc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// ----------------------------------------------------------- separation --

TEST(Separation, SubsetInternalWeight) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  const EdgeId e12 = g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  std::vector<double> x(static_cast<std::size_t>(g.edge_count()), 0.0);
  x[static_cast<std::size_t>(e01)] = 0.5;
  x[static_cast<std::size_t>(e12)] = 0.75;
  EXPECT_DOUBLE_EQ(subset_internal_weight(g, x, {0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(subset_internal_weight(g, x, {0, 1, 2}), 1.25);
  EXPECT_DOUBLE_EQ(subset_internal_weight(g, x, {0, 3}), 0.0);
}

TEST(Separation, SubsetInternalWeightIsBitIdenticalToEdgeOrderSum) {
  // The reference adds x_e over every alive edge with both ends in S, in
  // edge-id order.  Dead edges carry nonzero values (they must be ignored),
  // parallel edges repeat endpoints, and the values mix exact zeros, -0.0
  // and tiny negatives with ordinary fractions.
  Rng rng(1509);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 12));
    Graph g(n);
    const int m = static_cast<int>(rng.uniform_int(1, 4 * n));
    for (int k = 0; k < m; ++k) {
      const auto u = static_cast<VertexId>(rng.uniform_int(0, n - 1));
      auto v = static_cast<VertexId>(rng.uniform_int(0, n - 2));
      if (v >= u) ++v;
      g.add_edge(u, v, 1.0);
      if (rng.bernoulli(0.2)) g.add_edge(v, u, 1.0);  // parallel edge
    }
    std::vector<double> x(static_cast<std::size_t>(g.edge_count()));
    for (double& xe : x) {
      switch (rng.uniform_int(0, 5)) {
        case 0: xe = 0.0; break;
        case 1: xe = -0.0; break;
        case 2: xe = -1e-300 * rng.uniform(); break;
        case 3: xe = -1e-17; break;
        default: xe = rng.uniform(); break;
      }
    }
    for (EdgeId id = 0; id < g.edge_count(); ++id) {
      if (rng.bernoulli(0.15)) g.remove_edge(id);
    }
    for (int pick = 0; pick < 8; ++pick) {
      std::vector<VertexId> subset;
      for (VertexId v = 0; v < n; ++v) {
        if (rng.bernoulli(0.6)) subset.push_back(v);
      }
      rng.shuffle(subset);
      std::vector<bool> in_set(static_cast<std::size_t>(n), false);
      for (VertexId v : subset) in_set[static_cast<std::size_t>(v)] = true;
      double reference = 0.0;
      for (EdgeId id = 0; id < g.edge_count(); ++id) {
        const graph::Edge& e = g.edge(id);
        if (g.is_alive(id) && in_set[static_cast<std::size_t>(e.u)] &&
            in_set[static_cast<std::size_t>(e.v)]) {
          reference += x[static_cast<std::size_t>(id)];
        }
      }
      const double got = subset_internal_weight(g, x, subset);
      EXPECT_EQ(got, reference) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(reference))
          << "trial " << trial << ": sign or payload bits differ";
    }
  }
}

TEST(Separation, CleanTreeHasNoViolation) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<double> x(static_cast<std::size_t>(g.edge_count()), 1.0);
  EXPECT_TRUE(find_violated_subtours(g, x).empty());
}

TEST(Separation, DetectsIntegralCycle) {
  // Triangle {0,1,2} fully selected plus a pendant: x(E(S)) = 3 > |S|-1 = 2.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  std::vector<double> x{1.0, 1.0, 1.0, 0.0};
  const auto violated = find_violated_subtours(g, x);
  ASSERT_FALSE(violated.empty());
  bool found = false;
  for (const auto& s : violated) {
    if (std::set<VertexId>(s.begin(), s.end()) == std::set<VertexId>{0, 1, 2}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Separation, DetectsFractionalCycle) {
  // Each triangle edge at 0.8: x(E(S)) = 2.4 > 2.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  std::vector<double> x{0.8, 0.8, 0.8, 1.0, 0.8};
  const auto violated = find_violated_subtours(g, x);
  ASSERT_FALSE(violated.empty());
  for (const auto& s : violated) {
    EXPECT_GT(subset_internal_weight(g, x, s),
              static_cast<double>(s.size()) - 1.0 + 1e-9);
  }
}

TEST(Separation, MinCutFindsViolatingSetExactly) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  std::vector<double> x{1.0, 1.0, 1.0, 0.0};
  // S = {0,1,2} avoids vertex 3: force 0 in, 3 out.
  const SeparationCut cut = min_subtour_cut(g, x, 0, 3);
  EXPECT_LT(cut.f_value, 2.0 - 1e-9);
  EXPECT_EQ(std::set<VertexId>(cut.subset.begin(), cut.subset.end()),
            (std::set<VertexId>{0, 1, 2}));
}

TEST(Separation, ReturnedSetsAreAlwaysTrulyViolated) {
  // Property: whatever the oracle returns must violate its subtour row.
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 6;
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.bernoulli(0.7)) g.add_edge(u, v, 1.0);
      }
    }
    if (g.edge_count() == 0) continue;
    // Random x scaled so that sum = n - 1 (the spanning constraint).
    std::vector<double> x(static_cast<std::size_t>(g.edge_count()), 0.0);
    double sum = 0.0;
    for (auto& xi : x) {
      xi = rng.uniform();
      sum += xi;
    }
    for (auto& xi : x) xi = std::min(1.0, xi * static_cast<double>(n - 1) / sum);
    for (const auto& s : find_violated_subtours(g, x)) {
      EXPECT_GT(subset_internal_weight(g, x, s),
                static_cast<double>(s.size()) - 1.0)
          << "trial " << trial;
    }
  }
}

// -------------------------------------------- LP + cuts => MST (Lemma 1) --

/// With no degree caps, the cutting-plane LP is the Subtour LP; its extreme
/// optimum must be integral and equal to the MST (Lemma 1 of the paper).
TEST(SubtourLp, ExtremePointIsIntegralMst) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 7;
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.bernoulli(0.6)) g.add_edge(u, v, rng.uniform(0.5, 3.0));
      }
    }
    if (!graph::is_connected(g)) continue;

    MrlcLpFormulation formulation(
        g, std::vector<std::optional<double>>(static_cast<std::size_t>(n)));
    const CutLpResult res = solve_with_subtour_cuts(formulation, CutLoopOptions{});
    ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);

    const auto mst = graph::kruskal_mst(g);
    ASSERT_TRUE(mst.has_value());
    EXPECT_NEAR(res.objective, mst->total_weight, 1e-6) << "trial " << trial;

    int fractional = 0;
    int selected = 0;
    for (double xe : res.edge_values) {
      if (xe > 1e-6 && xe < 1.0 - 1e-6) ++fractional;
      if (xe > 1.0 - 1e-6) ++selected;
    }
    EXPECT_EQ(fractional, 0) << "trial " << trial;
    EXPECT_EQ(selected, n - 1) << "trial " << trial;
  }
}

TEST(SubtourLp, InfeasibleOnDisconnectedGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  MrlcLpFormulation formulation(g, std::vector<std::optional<double>>(4));
  const CutLpResult res = solve_with_subtour_cuts(formulation, CutLoopOptions{});
  // Either the base LP is already infeasible (x <= 1 caps the two edges at
  // total 2 < 3) or a cut exposes it.
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
}

TEST(SubtourLp, DegreeCapsRestrictSolutions) {
  // Star + path alternatives: capping the center's degree forces the path.
  Graph g(4);
  g.add_edge(0, 1, 1.0);   // cheap star edges
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(1, 2, 5.0);   // expensive path edges
  g.add_edge(2, 3, 5.0);
  std::vector<std::optional<double>> caps(4);
  caps[0] = 1.0;  // center may keep only one incident edge
  MrlcLpFormulation formulation(g, caps);
  const CutLpResult res = solve_with_subtour_cuts(formulation, CutLoopOptions{});
  ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
  // One cheap edge + two expensive ones.
  EXPECT_NEAR(res.objective, 11.0, 1e-6);
}

TEST(SubtourLp, RedundantCapsAreDropped) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  std::vector<std::optional<double>> caps(3);
  caps[1] = 10.0;  // >= n-1, must be ignored
  MrlcLpFormulation formulation(g, caps);
  EXPECT_EQ(formulation.model().constraint_count(), 1);  // only the span row
}

TEST(SubtourLp, FormulationValidatesInput) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(MrlcLpFormulation(g, std::vector<std::optional<double>>(2)),
               std::invalid_argument);
  MrlcLpFormulation f(g, std::vector<std::optional<double>>(3));
  EXPECT_THROW(f.add_subtour_row({0}), std::invalid_argument);
  EXPECT_THROW(f.add_subtour_row({0, 0}), std::invalid_argument);
  EXPECT_THROW(f.add_subtour_row({0, 99}), std::invalid_argument);
}

TEST(DegreeCaps, LifetimeCapsEncodeChildrenBounds) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 1.0);
  net.add_link(1, 2, 1.0);
  for (int v = 0; v < 3; ++v) net.set_initial_energy(v, 3000.0);
  const double bound = 1e6;  // rounds
  const auto caps = lifetime_degree_caps(net, {true, true, true}, bound);
  const double children = net.max_children_real(0, bound);
  ASSERT_TRUE(caps[0].has_value());
  ASSERT_TRUE(caps[1].has_value());
  EXPECT_DOUBLE_EQ(*caps[0], children);        // sink: children = degree
  EXPECT_DOUBLE_EQ(*caps[1], children + 1.0);  // non-sink: one edge to parent
}

TEST(DegreeCaps, UnconstrainedVerticesGetNullopt) {
  wsn::Network net(3, 0);
  net.add_link(0, 1, 1.0);
  net.add_link(1, 2, 1.0);
  const auto caps = lifetime_degree_caps(net, {false, true, false}, 1e6);
  EXPECT_FALSE(caps[0].has_value());
  EXPECT_TRUE(caps[1].has_value());
  EXPECT_FALSE(caps[2].has_value());
}

}  // namespace
}  // namespace mrlc::core

// ------------------------------------------------------- weighted rows ----

namespace mrlc::core {
namespace {

TEST(WeightedRows, EnergyWeightedCapsSteerTheSolution) {
  // Two ways to span: a "cheap in cost, expensive in energy" star vs an
  // energy-light path.  With unit rows the star wins; with energy weights
  // the cap forbids it.
  graph::Graph g(4);
  const auto s1 = g.add_edge(0, 1, 1.0);
  const auto s2 = g.add_edge(0, 2, 1.0);
  const auto s3 = g.add_edge(0, 3, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 2.0);

  std::vector<std::optional<double>> caps(4);
  caps[0] = 5.0;  // generous in unit terms

  // Unit rows: the cap never binds; the cheap star is chosen (cost 3).
  {
    MrlcLpFormulation unit(g, caps);
    const CutLpResult res = solve_with_subtour_cuts(unit, CutLoopOptions{});
    ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(res.objective, 3.0, 1e-6);
  }
  // Weighted rows: each star edge charges 4 energy at the hub, so barely
  // more than one fits the budget of 5.  Unlike unit rows, weighted caps
  // admit *fractional* extreme points, so the LP value lies strictly
  // between the unconstrained optimum (3) and the best integral tree
  // under the cap (5 = one star edge + two path edges).
  {
    MrlcLpFormulation weighted(
        g, caps, [&](graph::VertexId v, graph::EdgeId e) {
          const bool star_edge = e == s1 || e == s2 || e == s3;
          return v == 0 && star_edge ? 4.0 : 0.1;
        });
    const CutLpResult res = solve_with_subtour_cuts(weighted, CutLoopOptions{});
    ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
    EXPECT_GT(res.objective, 4.0);         // the cap genuinely binds
    EXPECT_LE(res.objective, 5.0 + 1e-6);  // valid lower bound on the tree
    // The fractional point respects the weighted row.
    double hub_energy = 0.0;
    for (const graph::EdgeId e : {s1, s2, s3}) {
      hub_energy += 4.0 * res.edge_values[static_cast<std::size_t>(e)];
    }
    EXPECT_LE(hub_energy, 5.0 + 1e-6);
  }
}

TEST(WeightedRows, WeightedCapIsNotDroppedAsRedundant) {
  // With unit rows a cap >= n-1 is dropped; with weights it must be kept
  // (a weighted sum can exceed n-1 easily).
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  std::vector<std::optional<double>> caps(3);
  caps[1] = 2.5;  // >= n-1 = 2
  MrlcLpFormulation unit(g, caps);
  EXPECT_EQ(unit.model().constraint_count(), 1);  // span row only
  MrlcLpFormulation weighted(g, caps,
                             [](graph::VertexId, graph::EdgeId) { return 10.0; });
  EXPECT_EQ(weighted.model().constraint_count(), 2);  // span + the cap
}

}  // namespace
}  // namespace mrlc::core

// --------------------------------------------------------- cut pool ----

namespace mrlc::core {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(SubtourCutPool, RemembersSortedDeduplicatedSets) {
  SubtourCutPool pool;
  pool.remember({2, 0, 1});
  pool.remember({1, 2, 0});  // same set, different order: deduplicated
  pool.remember({3, 4});
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.sets()[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(pool.sets()[1], (std::vector<VertexId>{3, 4}));
}

TEST(SubtourCutPool, HotVerticesOrderedByAppearanceCount) {
  SubtourCutPool pool;
  pool.remember({0, 1, 2});
  pool.remember({1, 2, 3});
  pool.remember({2, 4, 5});
  // Counts: v2 = 3, v1 = 2, rest = 1 or 0; ties break by ascending id.
  const std::vector<VertexId> hot = pool.hot_vertices(7);
  ASSERT_EQ(hot.size(), 7u);
  EXPECT_EQ(hot[0], 2);
  EXPECT_EQ(hot[1], 1);
  EXPECT_EQ(hot[2], 0);  // tied at 1 appearance with 3, 4, 5 — lowest id first
  EXPECT_EQ(hot[3], 3);
  EXPECT_EQ(hot[4], 4);
  EXPECT_EQ(hot[5], 5);
  EXPECT_EQ(hot[6], 6);  // never seen, still listed (count 0)
}

TEST(SubtourCutPool, SecondSeparationCallIsServedFromPoolWithoutFlows) {
  metrics::set_enabled(true);
  // Triangle {0,1,2} violated, pendant keeps the support connected so the
  // component heuristic (stage 1) finds nothing and stage 2 must run.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<double> x{0.8, 0.8, 0.8, 1.0};

  metrics::Counter& flows = metrics::counter("separation.maxflow_calls");
  metrics::Counter& hits = metrics::counter("separation.pool_hits");

  SubtourCutPool pool;
  const long long flows0 = flows.value();
  const auto first = find_violated_subtours(g, x, 1e-6, SeparationMode::kExact,
                                            &pool);
  ASSERT_FALSE(first.empty());
  EXPECT_GT(flows.value(), flows0);  // the first call needed real max-flows
  EXPECT_GE(pool.size(), 1u);

  // Same fractional point again (as after an outer-iteration LP rebuild):
  // the pooled set still separates it, so no flow runs at all.
  const long long flows1 = flows.value();
  const long long hits1 = hits.value();
  const auto second = find_violated_subtours(g, x, 1e-6, SeparationMode::kExact,
                                             &pool);
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(flows.value(), flows1);
  EXPECT_GT(hits.value(), hits1);
  EXPECT_EQ(second[0], first[0]);
}

TEST(SubtourCutPool, PooledOracleFindsSameSetsAsStateless) {
  // The pool is an accelerator, not a filter: on a fresh pool the pooled
  // oracle returns exactly what the stateless oracle returns.
  Rng rng(991);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 9));
    Graph g(n);
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = a + 1; b < n; ++b) {
        if (rng.uniform(0.0, 1.0) < 0.6) g.add_edge(a, b, 1.0);
      }
    }
    std::vector<double> x(static_cast<std::size_t>(g.edge_count()));
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    const auto stateless = find_violated_subtours(g, x);
    SubtourCutPool pool;
    const auto pooled =
        find_violated_subtours(g, x, 1e-6, SeparationMode::kExact, &pool);
    EXPECT_EQ(stateless, pooled) << "trial " << trial;
    EXPECT_EQ(pool.size(), pooled.size()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mrlc::core
