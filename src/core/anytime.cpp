#include "core/anytime.hpp"

#include <algorithm>
#include <sstream>

#include "baselines/aaml.hpp"
#include "baselines/greedy_mrlc.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "graph/mst.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {

const char* to_string(AnytimeStatus status) noexcept {
  switch (status) {
    case AnytimeStatus::kOptimal:
      return "optimal";
    case AnytimeStatus::kFeasibleBudgetExhausted:
      return "feasible_budget_exhausted";
    case AnytimeStatus::kInfeasible:
      return "infeasible";
    case AnytimeStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// The seeded incumbent: a feasible tree obtained without any LP work.
struct Incumbent {
  bool valid = false;
  wsn::AggregationTree tree;
  bool meets_bound = false;
  const char* origin = "none";
};

/// The incumbent, seeded before any LP work: the lexicographic-AAML tree
/// for max_lifetime (always a spanning tree, and the strongest LP-free
/// lifetime heuristic in the repo); for the minimizing variants the MST
/// under the variant's own edge costs — the unconstrained objective
/// optimum, so when it satisfies the variant's rows the solve only has to
/// certify it (for mrlc the costs are the topology weights -ln q, so this
/// is `mst_baseline`'s tree).  When the MST misses the bound, the
/// degree-capped greedy tree replaces it if it meets the bound; when
/// neither does, the MST is kept as the best-effort fallback, reported
/// honestly through `meets_bound = false`.
Incumbent seed_incumbent(const ProblemVariant& variant,
                         const wsn::Network& net, double bound) {
  Incumbent best;
  if (variant.maximizing()) {
    baselines::AamlOptions aaml_options;
    aaml_options.mode = baselines::AamlSearchMode::kLexicographic;
    aaml_options.initial = baselines::AamlInitialTree::kBfs;
    const baselines::AamlResult aaml = baselines::aaml(net, aaml_options);
    best.valid = true;
    best.tree = aaml.tree;
    best.meets_bound = aaml.lifetime >= bound * (1.0 - 1e-12);
    best.origin = "aaml";
    return best;
  }
  graph::Graph reweighted = net.topology();
  for (graph::EdgeId id : reweighted.alive_edge_ids()) {
    reweighted.set_weight(id, variant.edge_cost(net, id));
  }
  const auto mst = graph::prim_mst(reweighted, net.sink());
  if (mst.has_value()) {
    best.valid = true;
    best.tree = wsn::AggregationTree::from_edges(net, mst->edges);
    best.meets_bound = variant.tree_feasible(net, best.tree, bound);
    best.origin = "mst";
  }
  if (!best.meets_bound) {
    try {
      const baselines::GreedyMrlcResult greedy =
          baselines::greedy_mrlc(net, bound);
      const bool feasible = variant.tree_feasible(net, greedy.tree, bound);
      if (feasible || !best.valid) {
        best.valid = true;
        best.tree = greedy.tree;
        best.meets_bound = feasible;
        best.origin = "greedy";
      }
    } catch (const InfeasibleError&) {
      // Greedy stuck; keep whatever we have.
    }
  }
  return best;
}

}  // namespace

AnytimeResult solve_anytime(const wsn::Network& net, double bound,
                            const AnytimeOptions& options) {
  trace::ScopedPhase phase("anytime");
  MRLC_REQUIRE(bound > 0.0, "lifetime bound must be positive");
  const ProblemVariant& variant = problem_variant(options.variant);
  AnytimeResult out;
  out.variant = options.variant;
  try {
    net.validate();
  } catch (const InfeasibleError& e) {
    // Disconnected topology: report through the typed status like every
    // other structural infeasibility (per-element data problems still
    // throw invalid_argument — those are caller bugs, not instances).
    out.status = AnytimeStatus::kInfeasible;
    out.message = e.what();
    return out;
  }

  const Incumbent incumbent = seed_incumbent(variant, net, bound);

  IraOptions ira_options = options.ira;
  ira_options.bound_mode = BoundMode::kDirect;  // see AnytimeOptions
  ira_options.budget = options.budget;
  IraProgress progress;
  ira_options.progress = &progress;

  const bool maximizing = variant.maximizing();
  auto minimizing_dual = [&]() {
    // Any completed first-iteration LP round bounds the optimum from
    // below in kDirect mode; with no completed round, 0 is valid because
    // every variant's edge costs are >= 0 (pinned by the property battery).
    return progress.first_lp_valid ? std::max(progress.first_lp_objective, 0.0)
                                   : 0.0;
  };
  auto finish_tree = [&](const wsn::AggregationTree& tree) {
    out.tree = tree;
    out.cost = wsn::tree_cost(net, out.tree);
    out.reliability = wsn::tree_reliability(net, out.tree);
    out.lifetime = wsn::network_lifetime(net, out.tree);
    out.objective = variant.tree_objective(net, out.tree);
    out.meets_bound = variant.tree_feasible(net, out.tree, bound);
  };

  try {
    const VariantResult res = solve_variant(options.variant, net, bound,
                                            ira_options);
    out.status = AnytimeStatus::kOptimal;
    out.stats = res.stats;
    // Prefer the solver's tree; fall back to a bound-meeting incumbent only
    // when the direct-mode relaxation overshot the bound and it did not.
    if (!res.meets_bound && incumbent.valid && incumbent.meets_bound) {
      finish_tree(incumbent.tree);
      out.from_incumbent = true;
    } else {
      finish_tree(res.tree);
    }
    // max_lifetime certifies from above (internal_bound is the top
    // LP-feasible rung); the minimizing variants from below.
    out.dual_bound = maximizing ? res.internal_bound : minimizing_dual();
    out.gap = maximizing ? std::max(out.dual_bound - out.objective, 0.0)
                         : std::max(out.objective - out.dual_bound, 0.0);
    std::ostringstream os;
    os << variant.name() << " solve converged after "
       << res.stats.outer_iterations << " outer iterations";
    if (out.from_incumbent) {
      os << "; returned the " << incumbent.origin
         << " incumbent (solver tree missed the bound, incumbent meets it)";
    }
    out.message = os.str();
    return out;
  } catch (const InfeasibleError& e) {
    out.status = AnytimeStatus::kInfeasible;
    out.message = e.what();
    return out;
  } catch (const BudgetExhaustedError& e) {
    // Lazily registered: budget-free runs never add this key, keeping the
    // stock bench metric documents byte-identical.
    static metrics::Counter& budget_hits =
        metrics::counter("solver.budget_hits");
    budget_hits.add();
    const bool cancelled =
        options.budget != nullptr && options.budget->cancelled();
    out.status = cancelled ? AnytimeStatus::kCancelled
                           : AnytimeStatus::kFeasibleBudgetExhausted;
    if (!incumbent.valid) {
      // No seeded tree at all: the instance is not a budget problem, so
      // report it as an infeasibility.
      out.status = AnytimeStatus::kInfeasible;
      out.message = std::string("budget exhausted with no incumbent (") +
                    e.what() + ")";
      return out;
    }
    finish_tree(incumbent.tree);
    out.from_incumbent = true;
    // No completed scan to certify against; fall back to the weakest sound
    // bound in each direction (the ladder top is the lifetime any tree can
    // at best reach — its richest node with zero children).
    out.dual_bound =
        maximizing ? lifetime_candidates(net).back() : minimizing_dual();
    out.gap = maximizing ? std::max(out.dual_bound - out.objective, 0.0)
                         : std::max(out.objective - out.dual_bound, 0.0);
    std::ostringstream os;
    os << (cancelled ? "cancelled" : "budget exhausted") << " (" << e.what()
       << "); returning the " << incumbent.origin
       << " incumbent, certified gap " << out.gap;
    out.message = os.str();
    return out;
  }
}

}  // namespace mrlc::core
