/// \file property_test.cpp
/// \brief Parameterized property sweeps across the whole stack
/// (TEST_P / INSTANTIATE_TEST_SUITE_P): each property is checked over a
/// grid of instance shapes rather than a single hand-picked case.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy_mrlc.hpp"
#include "baselines/mst_baseline.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/exact.hpp"
#include "core/feasibility.hpp"
#include "core/ira.hpp"
#include "core/lp_formulation.hpp"
#include "core/separation.hpp"
#include "core/variant.hpp"
#include "graph/enumeration.hpp"
#include "graph/mst.hpp"
#include "helpers.hpp"
#include "lp/simplex.hpp"
#include "prufer/codec.hpp"
#include "radio/packet_sim.hpp"
#include "wsn/metrics.hpp"

namespace mrlc {
namespace {

using mrlc::testing::random_tree;
using mrlc::testing::small_random_network;

// ------------------------------------------------------ Prüfer sweeps --

class PruferSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PruferSizeSweep, RoundTripManyRandomTrees) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 101);
  for (int trial = 0; trial < 40; ++trial) {
    const wsn::Network net = small_random_network(n, 0.8, rng);
    const wsn::AggregationTree tree = random_tree(net, rng);
    const prufer::Code code = prufer::encode(tree.parents());
    EXPECT_EQ(static_cast<int>(code.size()), n - 2);
    EXPECT_EQ(prufer::decode(code, n), tree.parents());
    // Eq. 23 on the same tree.
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(prufer::children_from_code(code, n, v), tree.children_count(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PruferSizeSweep,
                         ::testing::Values(3, 4, 5, 8, 13, 21, 34, 55));

// ----------------------------------------------- MST vs enumeration ----

// gtest prints a struct parameter as a dump of its bytes, and ctest
// (gtest_discover_tests) takes that dump as the test's name. The sweep
// structs below used to have compiler padding after `nodes`, which is never
// initialised, so their ctest names changed from one build to the next.
// The padding is now an explicit `name_tag` word that no test reads: each
// case sets it to the bytes its ctest name has carried in the recorded test
// listings, so every build prints the same, historical names. The
// static_asserts keep any new padding from creeping back in.
struct GraphShape {
  int nodes;
  std::uint32_t name_tag;  ///< former padding; pins the ctest name
  double density;
};
static_assert(sizeof(GraphShape) == 2 * sizeof(std::uint32_t) + sizeof(double),
              "GraphShape must have no padding bytes");

class MstAgreementSweep : public ::testing::TestWithParam<GraphShape> {};

TEST_P(MstAgreementSweep, PrimKruskalAndEnumerationAgree) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  Rng rng(static_cast<std::uint64_t>(n * 1000) + static_cast<std::uint64_t>(p * 100));
  for (int trial = 0; trial < 10; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.3, 1.0);
    const auto prim = graph::prim_mst(net.topology(), 0);
    const auto kruskal = graph::kruskal_mst(net.topology());
    ASSERT_TRUE(prim.has_value());
    ASSERT_TRUE(kruskal.has_value());
    EXPECT_NEAR(prim->total_weight, kruskal->total_weight, 1e-9);

    double enumerated_best = 1e300;
    graph::for_each_spanning_tree(net.topology(), [&](const graph::SpanningTree& t) {
      enumerated_best = std::min(enumerated_best, t.total_weight);
      return true;
    });
    EXPECT_NEAR(enumerated_best, prim->total_weight, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MstAgreementSweep,
                         ::testing::Values(GraphShape{5, 0, 0.5}, GraphShape{5, 0, 0.9},
                                           GraphShape{6, 0, 0.6}, GraphShape{7, 0, 0.45},
                                           GraphShape{7, 0, 0.8},
                                           GraphShape{8, 0x55CE, 0.4}));

// ------------------------------------------------- IRA contract sweep --

struct IraCase {
  int nodes;
  std::uint32_t name_tag;  ///< former padding; pins the ctest name
  double density;
  int bound_children;  ///< LC = lifetime at this children count
  std::uint32_t tail_tag = 0;  ///< former tail padding
};
static_assert(sizeof(IraCase) == 4 * sizeof(std::uint32_t) + sizeof(double),
              "IraCase must have no padding bytes");

class IraContractSweep : public ::testing::TestWithParam<IraCase> {};

TEST_P(IraContractSweep, DirectModeContractHolds) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  const int children = GetParam().bound_children;
  Rng rng(static_cast<std::uint64_t>(n * 7919 + children));
  core::IraOptions options;
  options.bound_mode = core::BoundMode::kDirect;
  const core::IterativeRelaxation solver(options);
  for (int trial = 0; trial < 8; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.5, 1.0);
    const double bound =
        net.energy_model().node_lifetime(3000.0, children) * 0.99;
    core::IraResult res;
    try {
      res = solver.solve(net, bound);
    } catch (const InfeasibleError&) {
      // Direct-mode infeasibility must be a real proof.
      EXPECT_FALSE(core::lp_lifetime_feasible(net, bound)) << "trial " << trial;
      continue;
    }
    // Spanning tree with consistent metrics...
    EXPECT_EQ(res.tree.edge_ids().size(), static_cast<std::size_t>(n - 1));
    EXPECT_NEAR(res.cost, wsn::tree_cost(net, res.tree), 1e-9);
    // ...children violation bounded by +2...
    for (int v = 0; v < n; ++v) {
      EXPECT_LE(static_cast<double>(res.tree.children_count(v)),
                net.max_children_real(v, bound) + 2.0 + 1e-6)
          << "trial " << trial << " node " << v;
    }
    // ...and cost never above the unconstrained-tree cost ceiling is not
    // meaningful; instead: cost at least the MST lower bound.
    const auto mst = graph::prim_mst(net.topology(), 0);
    ASSERT_TRUE(mst.has_value());
    EXPECT_GE(res.cost, mst->total_weight - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IraContractSweep,
    ::testing::Values(IraCase{6, 0x1B532139, 0.7, 2}, IraCase{6, 0x55CE, 0.7, 4},
                      IraCase{8, 0, 0.5, 3}, IraCase{8, 0xFFFFFFFF, 0.8, 5},
                      IraCase{10, 0x55CE, 0.4, 4}, IraCase{10, 0, 0.7, 6},
                      IraCase{12, 0x55CE, 0.5, 5}));

class IraExactSweep : public ::testing::TestWithParam<IraCase> {};

TEST_P(IraExactSweep, DirectModeCostAtMostExactOptimum) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  const int children = GetParam().bound_children;
  Rng rng(static_cast<std::uint64_t>(n * 104729 + children));
  core::IraOptions options;
  options.bound_mode = core::BoundMode::kDirect;
  const core::IterativeRelaxation solver(options);
  for (int trial = 0; trial < 6; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.5, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, children) * 0.99;
    const auto exact = core::exact_mrlc(net, bound);
    if (!exact.has_value()) continue;
    core::IraResult res;
    try {
      res = solver.solve(net, bound);
    } catch (const InfeasibleError&) {
      ADD_FAILURE() << "IRA infeasible though the exact solver found a tree";
      continue;
    }
    // Relaxing the bound can only help: cost(IRA, +2 slack) <= OPT(LC).
    EXPECT_LE(res.cost, exact->cost + 1e-6) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, IraExactSweep,
                         ::testing::Values(IraCase{6, 0x55CE, 0.7, 2},
                                           IraCase{7, 0, 0.6, 3},
                                           IraCase{7, 0x55CE, 0.9, 4},
                                           IraCase{8, 0x55CE, 0.5, 3}));

// ------------------------------------------- warm vs cold LP identity --

// Property: warm-started LP reoptimization is an implementation detail.
// IRA with warm_start on and off must return the same tree and the same
// per-solve counters on every instance — everything except the pivot count
// (simplex_iterations), which is exactly what warm starting shrinks.
class WarmColdSweep : public ::testing::TestWithParam<IraCase> {};

TEST_P(WarmColdSweep, WarmAndColdProduceIdenticalTreesAndCounters) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  const int children = GetParam().bound_children;
  Rng rng(static_cast<std::uint64_t>(n * 50423 + children));
  core::IraOptions warm_options;
  warm_options.bound_mode = core::BoundMode::kDirect;
  warm_options.warm_start = true;
  core::IraOptions cold_options = warm_options;
  cold_options.warm_start = false;
  const core::IterativeRelaxation warm_solver(warm_options);
  const core::IterativeRelaxation cold_solver(cold_options);

  long long warm_pivots = 0;
  long long cold_pivots = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.5, 1.0);
    const double bound =
        net.energy_model().node_lifetime(3000.0, children) * 0.99;
    core::IraResult warm_res;
    core::IraResult cold_res;
    bool warm_threw = false;
    bool cold_threw = false;
    try {
      warm_res = warm_solver.solve(net, bound);
    } catch (const InfeasibleError&) {
      warm_threw = true;
    }
    try {
      cold_res = cold_solver.solve(net, bound);
    } catch (const InfeasibleError&) {
      cold_threw = true;
    }
    ASSERT_EQ(warm_threw, cold_threw) << "trial " << trial;
    if (warm_threw) continue;

    // Bit-identical trees and metrics derived from them.
    EXPECT_EQ(warm_res.tree.parents(), cold_res.tree.parents())
        << "trial " << trial;
    EXPECT_EQ(warm_res.cost, cold_res.cost) << "trial " << trial;
    EXPECT_EQ(warm_res.reliability, cold_res.reliability) << "trial " << trial;
    EXPECT_EQ(warm_res.lifetime, cold_res.lifetime) << "trial " << trial;

    // Every counter but the pivot count agrees: the cut pool feeds
    // separation identically in both modes, so the sequence of fractional
    // points, cuts, and removals is the same.
    EXPECT_EQ(warm_res.stats.outer_iterations, cold_res.stats.outer_iterations)
        << "trial " << trial;
    EXPECT_EQ(warm_res.stats.lp_solves, cold_res.stats.lp_solves)
        << "trial " << trial;
    EXPECT_EQ(warm_res.stats.cuts_added, cold_res.stats.cuts_added)
        << "trial " << trial;
    EXPECT_EQ(warm_res.stats.edges_removed, cold_res.stats.edges_removed)
        << "trial " << trial;
    EXPECT_EQ(warm_res.stats.constraints_removed,
              cold_res.stats.constraints_removed)
        << "trial " << trial;
    EXPECT_EQ(warm_res.stats.used_fallback, cold_res.stats.used_fallback)
        << "trial " << trial;
    warm_pivots += warm_res.stats.simplex_iterations;
    cold_pivots += cold_res.stats.simplex_iterations;
  }
  // In aggregate the warm path never pivots more (equal only if no cut
  // rounds happened anywhere in the sweep).
  EXPECT_LE(warm_pivots, cold_pivots);
}

INSTANTIATE_TEST_SUITE_P(Cases, WarmColdSweep,
                         ::testing::Values(IraCase{8, 0x55CE, 0.6, 3},
                                           IraCase{10, 0, 0.5, 4},
                                           IraCase{12, 0x55CE, 0.4, 4},
                                           IraCase{14, 0x55CE, 0.5, 5}));

// ------------------------------------------- subtour LP integrality ----

class SubtourIntegralitySweep : public ::testing::TestWithParam<GraphShape> {};

TEST_P(SubtourIntegralitySweep, ExtremePointsAreIntegral) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.3, 1.0);
    core::MrlcLpFormulation formulation(
        net.topology(),
        std::vector<std::optional<double>>(static_cast<std::size_t>(n)));
    const core::CutLpResult res =
        core::solve_with_subtour_cuts(formulation, core::CutLoopOptions{});
    ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
    for (double x : res.edge_values) {
      EXPECT_TRUE(x < 1e-6 || x > 1.0 - 1e-6) << "fractional extreme point";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SubtourIntegralitySweep,
                         ::testing::Values(GraphShape{5, 0x55CE, 0.8},
                                           GraphShape{7, 0, 0.5},
                                           GraphShape{9, 0x55CE, 0.4},
                                           GraphShape{11, 0x55CE, 0.35},
                                           GraphShape{13, 0x7FFD, 0.3}));

// ------------------------------------------------ packet-sim physics ---

class PacketQualitySweep : public ::testing::TestWithParam<double> {};

TEST_P(PacketQualitySweep, RetxCostMatchesInverseQuality) {
  const double q = GetParam();
  wsn::Network net(8, 0);
  for (int v = 1; v < 8; ++v) net.add_link(v - 1, v, q);
  const auto tree = wsn::AggregationTree::from_parents(
      net, std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6});
  Rng rng(static_cast<std::uint64_t>(q * 1e6));
  radio::RetxPolicy retx;
  retx.enabled = true;
  const radio::AggregateResult agg = radio::simulate_rounds(net, tree, retx, 4000, rng);
  EXPECT_NEAR(agg.avg_packets_per_round, 7.0 / q, 7.0 / q * 0.08);
}

TEST_P(PacketQualitySweep, NoRetxSuccessMatchesReliabilityProduct) {
  const double q = GetParam();
  wsn::Network net(6, 0);
  for (int v = 1; v < 6; ++v) net.add_link(v - 1, v, q);
  const auto tree =
      wsn::AggregationTree::from_parents(net, std::vector<int>{-1, 0, 1, 2, 3, 4});
  Rng rng(static_cast<std::uint64_t>(q * 2e6) + 3);
  const radio::AggregateResult agg =
      radio::simulate_rounds(net, tree, radio::RetxPolicy{}, 30000, rng);
  EXPECT_NEAR(agg.round_success_ratio, std::pow(q, 5), 0.015);
}

INSTANTIATE_TEST_SUITE_P(Qualities, PacketQualitySweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99));

// ------------------------------------------------- greedy sanity sweep --

class GreedySweep : public ::testing::TestWithParam<IraCase> {};

TEST_P(GreedySweep, GreedyWithinCapsIsValid) {
  const int n = GetParam().nodes;
  const double p = GetParam().density;
  const int children = GetParam().bound_children;
  Rng rng(static_cast<std::uint64_t>(n * 613 + children));
  for (int trial = 0; trial < 8; ++trial) {
    const wsn::Network net = small_random_network(n, p, rng, 0.5, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, children);
    const baselines::GreedyMrlcResult res = baselines::greedy_mrlc(net, bound);
    EXPECT_EQ(res.tree.edge_ids().size(), static_cast<std::size_t>(n - 1));
    if (res.cap_relaxations == 0) {
      EXPECT_TRUE(res.meets_bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, GreedySweep,
                         ::testing::Values(IraCase{8, 0, 0.6, 3},
                                           IraCase{10, 0xFFFFFFFF, 0.5, 4},
                                           IraCase{12, 0, 0.4, 5},
                                           IraCase{16, 0x7FD2, 0.7, 6}));

// Property: a sharded counter is lossless for any writer count, including
// more writers than shards (slots are reused round-robin) — N threads each
// adding M times always merges to exactly N * M.
struct ShardLoad {
  int threads;
  int increments;
};

class ShardedCounterSweep : public ::testing::TestWithParam<ShardLoad> {};

TEST_P(ShardedCounterSweep, NThreadsTimesMIncrementsMergeExactly) {
  const auto [threads, increments] = GetParam();
  metrics::set_enabled(true);
  metrics::Counter& c = metrics::counter(
      "test.property_sharded_" + std::to_string(threads) + "_" +
      std::to_string(increments));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&c, increments = increments] {
      for (int i = 0; i < increments; ++i) c.add();
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(c.value(), static_cast<long long>(threads) * increments);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Loads, ShardedCounterSweep,
                         ::testing::Values(ShardLoad{1, 10'000},
                                           ShardLoad{2, 25'000},
                                           ShardLoad{8, 10'000},
                                           ShardLoad{17, 3'000},   // > kShardCount
                                           ShardLoad{32, 1'000}));

// Property: for any sample distribution, a histogram filled concurrently is
// indistinguishable (count, sum, extrema, quantiles) from one filled
// serially with the same multiset — shard merging introduces no error on
// top of the documented bucket resolution.
class ShardedHistogramSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedHistogramSweep, ConcurrentFillMatchesSerialFill) {
  const int distribution = GetParam();
  metrics::set_enabled(true);
  const auto sample = [distribution](int t, int i) -> long long {
    switch (distribution) {
      case 0: return i % 7;                                  // tiny exact values
      case 1: return (i * 37 + t * 101) % 5000;              // mid-range mix
      case 2: return (1LL << (i % 40)) + t;                  // log-spread
      default: return (i % 11 == 0) ? 1'000'000'000LL : i % 3;  // heavy tail
    }
  };
  metrics::Histogram& concurrent = metrics::histogram(
      "test.property_hist_conc_" + std::to_string(distribution));
  metrics::Histogram& serial = metrics::histogram(
      "test.property_hist_serial_" + std::to_string(distribution));
  constexpr int kThreads = 6;
  constexpr int kPerThread = 3'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&concurrent, t, &sample] {
      for (int i = 0; i < kPerThread; ++i) concurrent.record(sample(t, i));
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial.record(sample(t, i));
  }
  EXPECT_EQ(concurrent.count(), serial.count());
  EXPECT_EQ(concurrent.sum(), serial.sum());
  EXPECT_EQ(concurrent.min(), serial.min());
  EXPECT_EQ(concurrent.max(), serial.max());
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(concurrent.percentile(p), serial.percentile(p)) << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, ShardedHistogramSweep,
                         ::testing::Values(0, 1, 2, 3));

// --------------------------------------------- variant edge-cost laws --

class VariantCostSweep : public ::testing::TestWithParam<core::VariantId> {};

// Every variant's edge cost is a penalty on lossiness: finite,
// non-negative, and monotone non-increasing in the link's PRR (the
// contract pinned in core/variant.hpp — the cut loop and branch-and-bound
// both assume costs never reward a worse channel).
TEST_P(VariantCostSweep, CostsAreFiniteNonNegativeAndMonotoneInPrr) {
  const core::VariantId id = GetParam();
  const core::ProblemVariant& variant = core::problem_variant(id);
  Rng rng(4242 + static_cast<std::uint64_t>(id));
  for (int trial = 0; trial < 8; ++trial) {
    wsn::Network net = small_random_network(9, 0.6, rng, 0.3, 0.95);
    for (const graph::EdgeId e : net.topology().alive_edge_ids()) {
      const double before = variant.edge_cost(net, e);
      EXPECT_TRUE(std::isfinite(before)) << core::to_string(id);
      EXPECT_GE(before, 0.0) << core::to_string(id);
      // Strictly improving the channel strictly lowers the cost (every
      // variant's cost is strictly decreasing in q on (0, 1]).
      net.set_link_prr(e, net.link_prr(e) + 0.04);
      const double after = variant.edge_cost(net, e);
      EXPECT_LT(after, before) << core::to_string(id) << " edge " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantCostSweep, ::testing::ValuesIn(core::all_variants()),
    [](const ::testing::TestParamInfo<core::VariantId>& info) {
      return std::string(core::to_string(info.param));
    });

}  // namespace
}  // namespace mrlc
