/// \file variant_test.cpp
/// \brief The cross-variant correctness battery for the ProblemVariant
/// interface (core/variant.hpp).
///
/// Three layers, mirroring the refactor's promises:
///
/// 1. **Parity** — `variant=mrlc` routed through the interface is
///    bit-identical to the historical `IterativeRelaxation` (trees, costs,
///    every per-solve counter), and every variant is invariant across
///    warm/cold LP reoptimization, sparse/dense engines, and thread counts
///    (>= 48 seeded instances per variant).
/// 2. **Ground truth** — at n <= 10 every spanning tree can be enumerated
///    (Prüfer-backed `graph::for_each_spanning_tree`), so each variant's
///    branch-and-bound is checked against the true optimum of its own
///    objective over its own feasible set, and the LP path is checked to
///    never beat that optimum.
/// 3. **Physics** — the `etx` objective is what the ARQ data plane actually
///    measures: simulated expected transmissions match Σ 1/q_e and the etx
///    tree beats the stock MRLC tree on lossy channels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mst_baseline.hpp"
#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/branch_bound.hpp"
#include "core/exact.hpp"
#include "core/ira.hpp"
#include "core/solve.hpp"
#include "core/variant.hpp"
#include "graph/enumeration.hpp"
#include "graph/mst.hpp"
#include "helpers.hpp"
#include "lp/simplex.hpp"
#include "radio/packet_sim.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {
namespace {

using mrlc::testing::small_random_network;

// ------------------------------------------------------------ helpers --

/// One front-door solve of variant `id` with the given engine options.
SolveResult solve_as(VariantId id, const wsn::Network& net, double bound,
                     const IraOptions& options = {}) {
  SolveRequest request;
  request.variant = id;
  request.bound = bound;
  request.ira = options;
  return solve(net, request);
}

/// Conservative lifetime of a concrete tree: the bound at which the
/// weighted energy rows (each incident edge charged its worst role, the
/// exact caps branch-and-bound and the etx LP use) accept this tree.
double conservative_tree_lifetime(const wsn::Network& net,
                                  const wsn::AggregationTree& tree) {
  const int n = net.node_count();
  std::vector<double> rate(static_cast<std::size_t>(n), 0.0);
  for (graph::EdgeId e : tree.edge_ids()) {
    const graph::Edge& edge = net.topology().edge(e);
    rate[static_cast<std::size_t>(edge.u)] +=
        conservative_energy_rate(net, edge.u, e);
    rate[static_cast<std::size_t>(edge.v)] +=
        conservative_energy_rate(net, edge.v, e);
  }
  double lifetime = 1e300;
  for (int v = 0; v < n; ++v) {
    if (rate[static_cast<std::size_t>(v)] > 0.0) {
      lifetime = std::min(lifetime, net.initial_energy(v) /
                                        rate[static_cast<std::size_t>(v)]);
    }
  }
  return lifetime;
}

/// True when `tree` satisfies the conservative energy rows at `bound` —
/// the exact feasible set the etx branch-and-bound searches.
bool conservative_feasible(const wsn::Network& net,
                           const wsn::AggregationTree& tree, double bound) {
  return conservative_tree_lifetime(net, tree) >= bound * (1.0 - 1e-9);
}

/// A bound every variant can certainly meet on `net` (so sweeps exercise
/// real solves, not blanket infeasibility): children-based for mrlc, the
/// MST's own conservative lifetime for etx, advisory for min_energy, the
/// ladder floor for max_lifetime.
double feasible_bound(VariantId id, const wsn::Network& net) {
  switch (id) {
    case VariantId::kMrlc:
      return net.energy_model().node_lifetime(net.min_initial_energy(), 4) *
             0.99;
    case VariantId::kEtx: {
      const auto mst = graph::prim_mst(net.topology(), net.sink());
      const auto tree = wsn::AggregationTree::from_edges(net, mst->edges);
      return conservative_tree_lifetime(net, tree) * 0.999;
    }
    case VariantId::kMinEnergy:
      return 1.0;  // advisory only
    case VariantId::kMaxLifetime:
      return lifetime_candidates(net).front();  // every tree's floor
  }
  return 1.0;
}

struct EnumeratedBest {
  double objective = 0.0;
  wsn::AggregationTree tree;
};

/// Brute-force optimum of `id`'s objective over `id`'s feasible set by
/// enumerating every spanning tree; nullopt when no tree is feasible.
std::optional<EnumeratedBest> enumerate_best(VariantId id,
                                             const wsn::Network& net,
                                             double bound) {
  const ProblemVariant& variant = problem_variant(id);
  std::optional<EnumeratedBest> best;
  graph::for_each_spanning_tree(
      net.topology(), [&](const graph::SpanningTree& st) {
        auto tree = wsn::AggregationTree::from_edges(net, st.edges);
        const bool feasible =
            id == VariantId::kMinEnergy ||
            (id == VariantId::kEtx ? conservative_feasible(net, tree, bound)
                                   : variant.tree_feasible(net, tree, bound));
        if (!feasible) return true;
        const double objective = variant.tree_objective(net, tree);
        const bool improves =
            !best.has_value() || (variant.maximizing()
                                      ? objective > best->objective + 1e-15
                                      : objective < best->objective - 1e-15);
        if (improves) best = EnumeratedBest{objective, std::move(tree)};
        return true;
      });
  return best;
}

// -------------------------------------------------------- identifiers --

TEST(VariantIdentifiers, TokensRoundTripAndUnknownsAreRejected) {
  ASSERT_EQ(all_variants().size(), 4u);
  for (const VariantId id : all_variants()) {
    const auto parsed = variant_from_string(to_string(id));
    ASSERT_TRUE(parsed.has_value()) << to_string(id);
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_EQ(std::string(to_string(VariantId::kMrlc)), "mrlc");
  EXPECT_EQ(std::string(to_string(VariantId::kEtx)), "etx");
  EXPECT_EQ(std::string(to_string(VariantId::kMinEnergy)), "min_energy");
  EXPECT_EQ(std::string(to_string(VariantId::kMaxLifetime)), "max_lifetime");
  EXPECT_FALSE(variant_from_string("").has_value());
  EXPECT_FALSE(variant_from_string("MRLC").has_value());
  EXPECT_FALSE(variant_from_string("mrlc-retx").has_value());
  EXPECT_FALSE(variant_from_string("minenergy").has_value());
}

TEST(VariantIdentifiers, SingletonsExposeTheirIdsAndCertificates) {
  for (const VariantId id : all_variants()) {
    const ProblemVariant& variant = problem_variant(id);
    EXPECT_EQ(variant.id(), id);
    EXPECT_EQ(std::string(variant.name()), to_string(id));
    EXPECT_FALSE(std::string(variant.certificate()).empty());
    EXPECT_EQ(variant.maximizing(), id == VariantId::kMaxLifetime);
  }
  // Same stateless instance on every call (thread-safe singletons).
  EXPECT_EQ(&problem_variant(VariantId::kEtx),
            &problem_variant(VariantId::kEtx));
}

// ------------------------------------------- mrlc bit-identical route --

/// The front door for mrlc must reproduce the raw `IterativeRelaxation`
/// engine call bit for bit — tree bytes, cost bits, and every per-solve
/// counter including the pivot count.
class MrlcRouteSweep : public ::testing::TestWithParam<BoundMode> {};

TEST_P(MrlcRouteSweep, BitIdenticalToHistoricalIra) {
  const BoundMode mode = GetParam();
  Rng rng(mode == BoundMode::kPaperStrict ? 515u : 516u);
  IraOptions options;
  options.bound_mode = mode;
  int solved = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const wsn::Network net = small_random_network(10, 0.5, rng, 0.5, 1.0);
    const double bound =
        net.energy_model().node_lifetime(net.min_initial_energy(), 4) * 0.99;

    std::optional<IraResult> legacy;
    bool legacy_threw = false;
    try {
      legacy = IterativeRelaxation(options).solve(net, bound);
    } catch (const InfeasibleError&) {
      legacy_threw = true;
    }
    const SolveResult routed = solve_as(VariantId::kMrlc, net, bound, options);
    const bool routed_threw = routed.status == SolveStatus::kInfeasible;
    ASSERT_EQ(legacy_threw, routed_threw) << "trial " << trial;
    if (legacy_threw) continue;
    ++solved;

    EXPECT_EQ(routed.tree.parents(), legacy->tree.parents()) << trial;
    EXPECT_EQ(routed.cost, legacy->cost) << trial;
    EXPECT_EQ(routed.objective, legacy->cost) << trial;
    EXPECT_EQ(routed.reliability, legacy->reliability) << trial;
    EXPECT_EQ(routed.lifetime, legacy->lifetime) << trial;
    EXPECT_EQ(routed.meets_bound, legacy->meets_bound) << trial;
    EXPECT_EQ(routed.stats.outer_iterations, legacy->stats.outer_iterations);
    EXPECT_EQ(routed.stats.lp_solves, legacy->stats.lp_solves) << trial;
    EXPECT_EQ(routed.stats.simplex_iterations,
              legacy->stats.simplex_iterations)
        << trial;
    EXPECT_EQ(routed.stats.cuts_added, legacy->stats.cuts_added) << trial;
    EXPECT_EQ(routed.stats.edges_removed, legacy->stats.edges_removed);
    EXPECT_EQ(routed.stats.constraints_removed,
              legacy->stats.constraints_removed)
        << trial;
    EXPECT_EQ(routed.stats.used_fallback, legacy->stats.used_fallback);
  }
  EXPECT_GE(solved, 8) << "sweep degenerated to blanket infeasibility";
}

INSTANTIATE_TEST_SUITE_P(BoundModes, MrlcRouteSweep,
                         ::testing::Values(BoundMode::kPaperStrict,
                                           BoundMode::kDirect),
                         [](const auto& info) {
                           return info.param == BoundMode::kPaperStrict
                                      ? "PaperStrict"
                                      : "Direct";
                         });

// --------------------------------------------------- VariantParity ----

/// One solve under an explicit (warm_start, engine, threads) config.
struct SolveOutcome {
  bool infeasible = false;
  SolveResult result;
};

SolveOutcome run_config(VariantId id, const wsn::Network& net, double bound,
                        bool warm, lp::Engine engine, unsigned threads) {
  const lp::Engine saved_engine = lp::default_engine();
  const unsigned saved_threads = default_thread_count();
  lp::set_default_engine(engine);
  set_default_thread_count(threads);
  SolveOutcome out;
  IraOptions options;
  options.warm_start = warm;
  out.result = solve_as(id, net, bound, options);
  out.infeasible = out.result.status == SolveStatus::kInfeasible;
  set_default_thread_count(saved_threads);
  lp::set_default_engine(saved_engine);
  return out;
}

struct ParityCase {
  VariantId id;
  int nodes;
  double density;
};

/// >= 48 seeded instances per variant (4 shapes x 12 seeds), each solved
/// under all 8 of warm/cold x sparse/dense x threads {1, 8}: trees, costs,
/// and per-solve counters must be bit-identical.  The pivot count is the
/// one documented exception — warm starting and the engine change the
/// pivot *path*, never the optimum (same carve-out as WarmColdSweep).
class VariantParitySweep : public ::testing::TestWithParam<ParityCase> {};

TEST_P(VariantParitySweep, AllEngineConfigsAreBitIdentical) {
  const auto [id, nodes, density] = GetParam();
  int solved = 0;
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(nodes) * 7717 +
            static_cast<std::uint64_t>(seed) * 13 +
            static_cast<std::uint64_t>(id));
    const wsn::Network net =
        small_random_network(nodes, density, rng, 0.5, 1.0);
    const double bound = feasible_bound(id, net);

    const SolveOutcome reference =
        run_config(id, net, bound, /*warm=*/true, lp::Engine::kSparse, 1);
    if (!reference.infeasible) ++solved;

    for (const bool warm : {true, false}) {
      for (const lp::Engine engine :
           {lp::Engine::kSparse, lp::Engine::kDense}) {
        for (const unsigned threads : {1u, 8u}) {
          const SolveOutcome probe =
              run_config(id, net, bound, warm, engine, threads);
          const std::string label =
              std::string(to_string(id)) + " seed " + std::to_string(seed) +
              (warm ? " warm" : " cold") +
              (engine == lp::Engine::kSparse ? " sparse" : " dense") +
              " threads " + std::to_string(threads);
          ASSERT_EQ(probe.infeasible, reference.infeasible) << label;
          if (probe.infeasible) continue;
          const SolveResult& a = probe.result;
          const SolveResult& b = reference.result;
          EXPECT_EQ(a.tree.parents(), b.tree.parents()) << label;
          EXPECT_EQ(a.objective, b.objective) << label;
          EXPECT_EQ(a.cost, b.cost) << label;
          EXPECT_EQ(a.reliability, b.reliability) << label;
          EXPECT_EQ(a.lifetime, b.lifetime) << label;
          EXPECT_EQ(a.bound_metric, b.bound_metric) << label;
          EXPECT_EQ(a.internal_bound, b.internal_bound) << label;
          EXPECT_EQ(a.meets_bound, b.meets_bound) << label;
          EXPECT_EQ(a.stats.outer_iterations, b.stats.outer_iterations)
              << label;
          EXPECT_EQ(a.stats.lp_solves, b.stats.lp_solves) << label;
          EXPECT_EQ(a.stats.cuts_added, b.stats.cuts_added) << label;
          EXPECT_EQ(a.stats.edges_removed, b.stats.edges_removed) << label;
          EXPECT_EQ(a.stats.constraints_removed, b.stats.constraints_removed)
              << label;
          EXPECT_EQ(a.stats.used_fallback, b.stats.used_fallback) << label;
        }
      }
    }
  }
  EXPECT_GE(solved, 6) << "sweep degenerated to blanket infeasibility";
}

std::string parity_case_name(
    const ::testing::TestParamInfo<ParityCase>& info) {
  std::string name = to_string(info.param.id);
  name += "_n" + std::to_string(info.param.nodes) + "_p" +
          std::to_string(static_cast<int>(info.param.density * 100));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VariantParitySweep,
    ::testing::Values(
        ParityCase{VariantId::kMrlc, 8, 0.6}, ParityCase{VariantId::kMrlc, 10, 0.5},
        ParityCase{VariantId::kMrlc, 12, 0.4}, ParityCase{VariantId::kMrlc, 12, 0.7},
        ParityCase{VariantId::kEtx, 8, 0.6}, ParityCase{VariantId::kEtx, 10, 0.5},
        ParityCase{VariantId::kEtx, 12, 0.4}, ParityCase{VariantId::kEtx, 12, 0.7},
        ParityCase{VariantId::kMinEnergy, 8, 0.6},
        ParityCase{VariantId::kMinEnergy, 10, 0.5},
        ParityCase{VariantId::kMinEnergy, 12, 0.4},
        ParityCase{VariantId::kMinEnergy, 12, 0.7},
        ParityCase{VariantId::kMaxLifetime, 8, 0.6},
        ParityCase{VariantId::kMaxLifetime, 10, 0.5},
        ParityCase{VariantId::kMaxLifetime, 12, 0.4},
        ParityCase{VariantId::kMaxLifetime, 12, 0.7}),
    parity_case_name);

// ------------------------------------------------ brute-force ground --

/// Exact branch-and-bound == enumerated optimum, per variant, at n <= 8.
/// (The feasible set matches what each search actually explores: plain
/// lifetime for mrlc/max_lifetime, conservative energy rows for etx,
/// everything for min_energy.)
class BruteForceSweep : public ::testing::TestWithParam<VariantId> {};

TEST_P(BruteForceSweep, BranchBoundMatchesEnumeratedOptimum) {
  const VariantId id = GetParam();
  Rng rng(4040 + static_cast<std::uint64_t>(id));
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int nodes = 6 + trial % 3;  // 6, 7, 8
    const wsn::Network net = small_random_network(nodes, 0.6, rng, 0.4, 1.0);
    const double bound = feasible_bound(id, net);
    const auto enumerated = enumerate_best(id, net, bound);
    const auto bb = branch_bound_variant(id, net, bound);
    ASSERT_EQ(enumerated.has_value(), bb.has_value())
        << to_string(id) << " trial " << trial;
    if (!enumerated.has_value()) continue;
    EXPECT_NEAR(bb->objective, enumerated->objective, 1e-9)
        << to_string(id) << " trial " << trial;
    if (id != VariantId::kMinEnergy) {
      EXPECT_TRUE(problem_variant(id).tree_feasible(net, bb->tree,
                                                    bound * (1.0 - 1e-9)))
          << to_string(id) << " trial " << trial;
    }
    ++compared;
  }
  EXPECT_GE(compared, 8);
}

TEST_P(BruteForceSweep, SolveVariantNeverBeatsTheEnumeratedOptimum) {
  const VariantId id = GetParam();
  const ProblemVariant& variant = problem_variant(id);
  Rng rng(5050 + static_cast<std::uint64_t>(id));
  int checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int nodes = 6 + trial % 3;
    const wsn::Network net = small_random_network(nodes, 0.6, rng, 0.4, 1.0);
    const double bound = feasible_bound(id, net);
    const auto enumerated = enumerate_best(id, net, bound);
    if (!enumerated.has_value()) continue;
    const SolveResult res = solve_as(id, net, bound);
    if (res.status == SolveStatus::kInfeasible) {
      continue;  // strict-mode mrlc may reject what LC-enumeration accepts
    }
    // The solve's tree is a real spanning tree with consistent metrics...
    EXPECT_EQ(res.tree.edge_ids().size(),
              static_cast<std::size_t>(nodes - 1));
    EXPECT_NEAR(res.objective, variant.tree_objective(net, res.tree), 1e-9);
    // ...and cannot beat the true optimum of its own feasible set (for
    // etx only when its tree sits inside the conservative set itself).
    const bool comparable =
        id == VariantId::kEtx
            ? conservative_feasible(net, res.tree, bound)
            : (id == VariantId::kMinEnergy ||
               variant.tree_feasible(net, res.tree, bound));
    if (!comparable) continue;
    if (variant.maximizing()) {
      EXPECT_LE(res.objective, enumerated->objective + 1e-9)
          << to_string(id) << " trial " << trial;
    } else {
      EXPECT_GE(res.objective, enumerated->objective - 1e-9)
          << to_string(id) << " trial " << trial;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

INSTANTIATE_TEST_SUITE_P(Variants, BruteForceSweep,
                         ::testing::ValuesIn(all_variants()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(BruteForce, MinEnergyLpRoundIsExactlyTheEnumeratedOptimum) {
  // Subtour-LP extreme points are integral, so the single certified LP
  // round must land on the true minimum-energy tree — not near it, on it.
  Rng rng(6060);
  for (int trial = 0; trial < 10; ++trial) {
    const wsn::Network net =
        small_random_network(6 + trial % 3, 0.6, rng, 0.4, 1.0);
    const auto enumerated =
        enumerate_best(VariantId::kMinEnergy, net, 1.0);
    ASSERT_TRUE(enumerated.has_value());
    const SolveResult res = solve_as(VariantId::kMinEnergy, net, 1.0);
    EXPECT_NEAR(res.objective, enumerated->objective, 1e-9) << trial;
  }
}

TEST(BruteForce, MaxLifetimeSolveMatchesExactAndCertificateIsSound) {
  Rng rng(7070);
  int closed = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const wsn::Network net =
        small_random_network(6 + trial % 3, 0.6, rng, 0.4, 1.0);
    const auto exact = exact_max_lifetime(net);
    ASSERT_TRUE(exact.has_value());
    const double floor = lifetime_candidates(net).front();
    const SolveResult res = solve_as(VariantId::kMaxLifetime, net, floor);
    // Soundness: never claims more than the true maximum, and the LP
    // certificate really is an upper bound on it.
    EXPECT_LE(res.objective, exact->lifetime * (1.0 + 1e-9)) << trial;
    EXPECT_GE(res.internal_bound, exact->lifetime * (1.0 - 1e-9)) << trial;
    // Branch-and-bound closes the gap exactly.
    const auto bb = branch_bound_variant(VariantId::kMaxLifetime, net, floor);
    ASSERT_TRUE(bb.has_value()) << trial;
    EXPECT_NEAR(bb->objective, exact->lifetime, exact->lifetime * 1e-9)
        << trial;
    if (res.objective >= exact->lifetime * (1.0 - 1e-9)) ++closed;
  }
  // The ladder scan is allowed to fall short of the optimum on hard draws,
  // but it must actually close most of these tiny instances.
  EXPECT_GE(closed, 5);
}

TEST(BruteForce, MaxLifetimeInfeasibleAboveTheLadderTop) {
  Rng rng(7171);
  const wsn::Network net = small_random_network(7, 0.6, rng, 0.4, 1.0);
  const double top = lifetime_candidates(net).back();
  EXPECT_EQ(solve_as(VariantId::kMaxLifetime, net, top * 2.0).status,
            SolveStatus::kInfeasible);
  EXPECT_FALSE(
      branch_bound_variant(VariantId::kMaxLifetime, net, top * 2.0)
          .has_value());
}

// --------------------------------------------------- etx × ARQ loop ---

TEST(EtxIntegration, MeasuredArqTransmissionsMatchTheEtxObjective) {
  Rng rng(8080);
  radio::RetxPolicy retx;
  retx.enabled = true;
  for (int trial = 0; trial < 5; ++trial) {
    const wsn::Network net = small_random_network(10, 0.6, rng, 0.35, 0.95);
    const double bound = feasible_bound(VariantId::kEtx, net);
    const SolveResult res = solve_as(VariantId::kEtx, net, bound);
    Rng sim_rng(900 + static_cast<std::uint64_t>(trial));
    const radio::AggregateResult agg =
        radio::simulate_rounds(net, res.tree, retx, 4000, sim_rng);
    // Σ 1/q_e is exactly the expected per-round transmission count under
    // retransmit-until-delivered — the objective is physical, not a proxy.
    EXPECT_NEAR(agg.avg_packets_per_round, res.objective,
                res.objective * 0.08)
        << "trial " << trial;
  }
}

/// Unconstrained, etx and mrlc always agree: -ln q and 1/q are both
/// strictly decreasing in q, induce the same edge ordering, and the MST
/// depends only on that ordering.  The variants only separate when their
/// *constraints* force a reroute — and then they reroute differently:
/// mrlc drops the link with the best q_direct/q_cross ratio (it compares
/// ln(q_d) - ln(q_c)), etx drops the one with the smallest 1/q_c - 1/q_d
/// difference.  This instance pins that divergence: the sink can keep
/// only two direct children, and the two candidate reroutes rank in
/// opposite order under the two objectives.
wsn::Network reroute_tradeoff_network() {
  wsn::Network net(4, 0);
  net.add_link(1, 0, 0.95);
  net.add_link(2, 0, 0.90);  // etx reroutes this (cheap in 1/q terms)
  net.add_link(3, 0, 0.35);  // mrlc reroutes this (cheap in ln q terms)
  net.add_link(2, 1, 0.60);
  net.add_link(3, 1, 0.25);
  return net;
}

TEST(EtxIntegration, EtxTreeBeatsStockMrlcTreeUnderLossyArq) {
  const wsn::Network net = reroute_tradeoff_network();
  const ProblemVariant& etx = problem_variant(VariantId::kEtx);

  // Both sides use the exact search: this is a divergence witness, so we
  // want each variant's true constrained optimum, not the IRA heuristic
  // (which is free to relax a binding row and report meets_bound=false).
  //
  // etx at a bound whose sink energy row rejects all-three-direct but
  // accepts either reroute: it keeps the lossy 0.35 link direct and moves
  // node 2 behind node 1 (ETX 5.576 vs 6.164 the other way).
  const double etx_bound =
      net.min_initial_energy() / (net.energy_model().rx_joules * 4.5);
  const auto etx_res = branch_bound_variant(VariantId::kEtx, net, etx_bound);

  // Stock mrlc with LC above the three-children lifetime: the sink keeps
  // two direct children and mrlc reroutes node 3 instead (cost 1.543 vs
  // 1.612), buying reliability with retransmission energy.
  const double mrlc_bound =
      net.energy_model().node_lifetime(net.min_initial_energy(), 2) * 0.9;
  const auto mrlc_res = branch_bound_variant(VariantId::kMrlc, net, mrlc_bound);

  ASSERT_TRUE(etx_res.has_value());
  ASSERT_TRUE(mrlc_res.has_value());
  EXPECT_GE(mrlc_res->lifetime, mrlc_bound);
  ASSERT_NE(etx_res->tree.parents(), mrlc_res->tree.parents());
  const double analytic_etx = etx_res->objective;
  const double analytic_mrlc = etx.tree_objective(net, mrlc_res->tree);
  EXPECT_LT(analytic_etx, analytic_mrlc);

  // The ARQ data plane agrees: the etx tree spends measurably fewer
  // transmissions per round, and both measurements match Σ 1/q_e.
  radio::RetxPolicy retx;
  retx.enabled = true;
  Rng sim_a(1700);
  Rng sim_b(1700);  // same channel draws for both trees
  const double measured_etx =
      radio::simulate_rounds(net, etx_res->tree, retx, 6000, sim_a)
          .avg_packets_per_round;
  const double measured_mrlc =
      radio::simulate_rounds(net, mrlc_res->tree, retx, 6000, sim_b)
          .avg_packets_per_round;
  EXPECT_LT(measured_etx, measured_mrlc);
  EXPECT_NEAR(measured_etx, analytic_etx, analytic_etx * 0.05);
  EXPECT_NEAR(measured_mrlc, analytic_mrlc, analytic_mrlc * 0.05);
}

// --------------------------------------------------- anytime contract --

TEST(AnytimeVariants, EachVariantConvergesWithItsOwnObjectiveAndGap) {
  Rng rng(9090);
  const wsn::Network net = small_random_network(10, 0.6, rng, 0.5, 1.0);
  for (const VariantId id : all_variants()) {
    Budget unlimited;
    IraOptions options;
    options.budget = &unlimited;
    const SolveResult res = solve_as(id, net, feasible_bound(id, net), options);
    EXPECT_EQ(res.status, SolveStatus::kOptimal) << to_string(id);
    EXPECT_EQ(res.tree.edge_ids().size(),
              static_cast<std::size_t>(net.node_count() - 1))
        << to_string(id);
    EXPECT_NEAR(res.objective,
                problem_variant(id).tree_objective(net, res.tree), 1e-9)
        << to_string(id);
    EXPECT_GE(res.gap, 0.0) << to_string(id);
    if (problem_variant(id).maximizing()) {
      EXPECT_GE(res.dual_bound, res.objective - 1e-9) << to_string(id);
    } else {
      EXPECT_LE(res.dual_bound, res.objective + 1e-9) << to_string(id);
    }
    EXPECT_FALSE(res.message.empty()) << to_string(id);
  }
}

TEST(AnytimeVariants, ZeroBudgetDegradesToASeededIncumbentPerVariant) {
  Rng rng(9191);
  const wsn::Network net = small_random_network(10, 0.6, rng, 0.5, 1.0);
  for (const VariantId id : all_variants()) {
    Budget budget;
    budget.set_work_limit(0);
    IraOptions options;
    options.budget = &budget;
    const SolveResult res = solve_as(id, net, feasible_bound(id, net), options);
    EXPECT_EQ(res.status, SolveStatus::kFeasibleBudgetExhausted)
        << to_string(id);
    EXPECT_TRUE(res.from_incumbent) << to_string(id);
    EXPECT_EQ(res.tree.edge_ids().size(),
              static_cast<std::size_t>(net.node_count() - 1))
        << to_string(id);
    EXPECT_TRUE(std::isfinite(res.gap)) << to_string(id);
    EXPECT_GE(res.gap, 0.0) << to_string(id);
    EXPECT_EQ(budget.used(), 0) << to_string(id);
  }
}

}  // namespace
}  // namespace mrlc::core
