/// \file micro_ablations.cpp
/// \brief Ablation studies over the design choices DESIGN.md calls out:
///
/// 1. IRA bound mode — the paper's strict L' (lifetime guaranteed, smaller
///    feasible range) vs. the direct LC relaxation (cost <= OPT(LC), up to
///    +2 children violation).
/// 2. AAML variants — the paper-faithful strict-min search from a random
///    tree vs. the stronger lexicographic search from a BFS tree, and what
///    that does to the L_AAML constraint the other algorithms inherit.
/// 3. Simplex pricing — Dantzig with Bland fallback vs. Bland-only, on the
///    degenerate spanning-tree LPs.

#include <iostream>
#include <vector>

#include "baselines/aaml.hpp"
#include "baselines/greedy_mrlc.hpp"
#include "baselines/mst_baseline.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "core/ira.hpp"
#include "core/lp_formulation.hpp"
#include "core/separation.hpp"
#include "graph/mst.hpp"
#include "scenario/random_net.hpp"

namespace {

using namespace mrlc;

void ablate_bound_mode() {
  bench::print_header("Ablation 1", "IRA bound mode: paper-strict L' vs direct LC");
  Rng rng(21);
  const scenario::RandomNetworkConfig config;

  Table table({"LC_children_equiv", "strict_feasible", "strict_cost_mb",
               "direct_cost_mb", "direct_violations", "instances"});
  for (const int children : {4, 5, 6, 8}) {
    int strict_ok = 0;
    int direct_violations = 0;
    RunningStats strict_cost, direct_cost;
    const int instances = 30;
    Rng sweep_rng = rng.fork(static_cast<std::uint64_t>(children));
    for (int i = 0; i < instances; ++i) {
      const wsn::Network net = scenario::make_random_network(config, sweep_rng);
      const double bound = net.energy_model().node_lifetime(3000.0, children);
      try {
        const core::IraResult res = core::IterativeRelaxation().solve(net, bound);
        ++strict_ok;
        strict_cost.add(bench::to_millibits(res.cost));
      } catch (const InfeasibleError&) {
      }
      core::IraOptions direct;
      direct.bound_mode = core::BoundMode::kDirect;
      const core::IraResult res = core::IterativeRelaxation(direct).solve(net, bound);
      direct_cost.add(bench::to_millibits(res.cost));
      direct_violations += res.meets_bound ? 0 : 1;
    }
    table.begin_row()
        .add(static_cast<long long>(children))
        .add(std::to_string(strict_ok) + "/" + std::to_string(instances))
        .add(strict_cost.count() > 0 ? strict_cost.mean() : 0.0, 1)
        .add(direct_cost.mean(), 1)
        .add(static_cast<long long>(direct_violations))
        .add(static_cast<long long>(instances));
  }
  table.print(std::cout);
  std::cout << "takeaway: strict mode trades feasible range for a hard lifetime "
               "guarantee; direct mode always answers, rarely violating\n";
}

void ablate_aaml_variants() {
  bench::print_header("Ablation 2", "AAML search variants");
  Rng rng(22);
  const scenario::RandomNetworkConfig config;

  struct Variant {
    const char* name;
    baselines::AamlOptions options;
  };
  std::vector<Variant> variants;
  {
    baselines::AamlOptions o;  // paper-faithful default
    variants.push_back({"strict-min / random start", o});
    o.initial = baselines::AamlInitialTree::kBfs;
    variants.push_back({"strict-min / BFS start", o});
    o.mode = baselines::AamlSearchMode::kLexicographic;
    variants.push_back({"lexicographic / BFS start", o});
    o.initial = baselines::AamlInitialTree::kRandom;
    variants.push_back({"lexicographic / random start", o});
  }

  Table table({"variant", "mean_lifetime", "mean_cost_mb", "mean_steps"});
  const int instances = 30;
  std::vector<wsn::Network> nets;
  for (int i = 0; i < instances; ++i) {
    nets.push_back(scenario::make_random_network(config, rng));
  }
  for (const Variant& v : variants) {
    RunningStats lifetime, cost, steps;
    for (const wsn::Network& net : nets) {
      const baselines::AamlResult res = baselines::aaml(net, v.options);
      lifetime.add(res.lifetime);
      cost.add(bench::to_millibits(res.cost));
      steps.add(static_cast<double>(res.steps));
    }
    table.begin_row()
        .add(std::string(v.name))
        .add(lifetime.mean(), 0)
        .add(cost.mean(), 1)
        .add(steps.mean(), 1);
  }
  table.print(std::cout);
  std::cout << "takeaway: the lexicographic variant reaches much longer "
               "lifetimes (tighter LC for IRA); the strict-min/random variant "
               "reproduces the paper's mediocre plateaus\n";
}

void ablate_greedy_vs_ira() {
  bench::print_header("Ablation 4", "degree-capped Kruskal (greedy) vs IRA");
  Rng rng(24);
  // Harder instances than the paper's: sparser, wider quality spread,
  // uneven batteries — the regime where greedy choices start to hurt.
  scenario::RandomNetworkConfig config;
  config.link_probability = 0.35;
  config.prr_min = 0.5;
  config.energy_min_j = 1500.0;
  config.energy_max_j = 5000.0;

  Table table({"LC_children_equiv", "greedy_mean_cost_mb", "ira_mean_cost_mb",
               "greedy_stuck", "greedy_violations", "ira_violations", "instances"});
  for (const int children : {2, 3, 4}) {
    RunningStats greedy_cost, ira_cost;
    int stuck = 0;
    int greedy_violations = 0;
    int ira_violations = 0;
    const int instances = 40;
    Rng sweep_rng = rng.fork(static_cast<std::uint64_t>(children));
    core::IraOptions options;
    options.bound_mode = core::BoundMode::kDirect;
    const core::IterativeRelaxation solver(options);
    int solved = 0;
    for (int i = 0; i < instances; ++i) {
      const wsn::Network net = scenario::make_random_network(config, sweep_rng);
      const double bound = net.energy_model().node_lifetime(3000.0, children);
      core::IraResult ira;
      try {
        ira = solver.solve(net, bound);
      } catch (const InfeasibleError&) {
        continue;  // genuinely unachievable bound on this draw
      }
      ++solved;
      const baselines::GreedyMrlcResult greedy = baselines::greedy_mrlc(net, bound);
      greedy_cost.add(bench::to_millibits(greedy.cost));
      ira_cost.add(bench::to_millibits(ira.cost));
      stuck += greedy.cap_relaxations > 0 ? 1 : 0;
      greedy_violations += greedy.meets_bound ? 0 : 1;
      ira_violations += ira.meets_bound ? 0 : 1;
    }
    table.begin_row()
        .add(static_cast<long long>(children))
        .add(greedy_cost.mean(), 1)
        .add(ira_cost.mean(), 1)
        .add(static_cast<long long>(stuck))
        .add(static_cast<long long>(greedy_violations))
        .add(static_cast<long long>(ira_violations))
        .add(static_cast<long long>(solved));
  }
  table.print(std::cout);
  std::cout << "takeaway: the LP machinery is what turns the children caps "
               "into near-optimal trees; the greedy sweep matches only when "
               "the caps barely bind\n";
}

void ablate_separation_oracle() {
  bench::print_header("Ablation 5",
                      "subtour separation: exact max-flow sweep vs heuristic-only");
  Rng rng(26);
  scenario::RandomNetworkConfig config;
  config.prr_min = 0.5;  // wider costs make fractional cycles more likely

  core::CutLoopOptions heuristic_options;
  heuristic_options.separation_mode = core::SeparationMode::kHeuristicOnly;
  int heuristic_unsound = 0;
  long long exact_solves = 0;
  long long heuristic_solves = 0;
  RunningStats exact_obj_gap;
  const int instances = 40;
  Rng sweep_rng = rng.fork(1);
  for (int i = 0; i < instances; ++i) {
    const wsn::Network net = scenario::make_random_network(config, sweep_rng);
    const int n = net.node_count();
    // A binding degree-capped LP (children ~ 3) keeps the relaxation
    // fractional enough to exercise separation.
    const double bound = net.energy_model().node_lifetime(3000.0, 3);
    std::vector<bool> all(static_cast<std::size_t>(n), true);

    core::MrlcLpFormulation exact_f(net.topology(),
                                    core::lifetime_degree_caps(net, all, bound));
    const core::CutLpResult exact =
        core::solve_with_subtour_cuts(exact_f, core::CutLoopOptions{});
    core::MrlcLpFormulation heur_f(net.topology(),
                                   core::lifetime_degree_caps(net, all, bound));
    const core::CutLpResult heur =
        core::solve_with_subtour_cuts(heur_f, heuristic_options);
    if (exact.status != lp::SolveStatus::kOptimal ||
        heur.status != lp::SolveStatus::kOptimal) {
      continue;
    }
    exact_solves += exact.lp_solves;
    heuristic_solves += heur.lp_solves;
    exact_obj_gap.add(exact.objective - heur.objective);
    // Soundness check: does the heuristic's final point still violate a
    // subtour row the exact oracle can find?
    if (!core::find_violated_subtours(net.topology(), heur.edge_values).empty()) {
      ++heuristic_unsound;
    }
  }
  Table table({"oracle", "lp_solves_total", "unsound_terminations", "instances"});
  table.begin_row().add("exact (components + max-flow)").add(exact_solves)
      .add(0LL).add(static_cast<long long>(instances));
  table.begin_row().add("heuristic only (components)").add(heuristic_solves)
      .add(static_cast<long long>(heuristic_unsound))
      .add(static_cast<long long>(instances));
  table.print(std::cout);
  std::cout << "mean objective shortfall of the heuristic relaxation: "
            << bench::to_millibits(exact_obj_gap.mean())
            << " mb (its LP value is a weaker lower bound when it quits early)\n"
            << "takeaway: the max-flow sweep is what makes 'no cut found' a "
               "proof; components alone terminate on subtour-violating points\n";
}

void ablate_simplex_pricing() {
  bench::print_header("Ablation 3", "simplex pricing on the MRLC LPs");
  Rng rng(23);
  const scenario::RandomNetworkConfig config;

  Table table({"pricing", "total_pivots", "pivots_per_solve", "total_lp_solves"});
  for (const bool bland_only : {false, true}) {
    core::IraOptions options;
    options.bound_mode = core::BoundMode::kDirect;
    options.simplex.bland_after = bland_only ? 0 : 5000;
    long long iterations = 0;
    long long solves = 0;
    Rng sweep_rng = rng.fork(bland_only ? 1 : 2);
    for (int i = 0; i < 20; ++i) {
      const wsn::Network net = scenario::make_random_network(config, sweep_rng);
      const double bound = net.energy_model().node_lifetime(3000.0, 6);
      const core::IraResult res = core::IterativeRelaxation(options).solve(net, bound);
      solves += res.stats.lp_solves;
      iterations += res.stats.simplex_iterations;
    }
    table.begin_row()
        .add(std::string(bland_only ? "Bland only" : "Dantzig + Bland fallback"))
        .add(iterations)
        .add(static_cast<double>(iterations) / static_cast<double>(solves), 2)
        .add(solves);
  }
  table.print(std::cout);
  std::cout << "takeaway: Dantzig pricing with a Bland fallback converges in "
               "fewer pivots; Bland-only stays correct (anti-cycling) but slower\n";
}

}  // namespace

int main() {
  ablate_bound_mode();
  ablate_aaml_variants();
  ablate_greedy_vs_ira();
  ablate_separation_oracle();
  ablate_simplex_pricing();
  return 0;
}
