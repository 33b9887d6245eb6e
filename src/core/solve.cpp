#include "core/solve.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "baselines/aaml.hpp"
#include "baselines/greedy_mrlc.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/branch_bound.hpp"
#include "core/feasibility.hpp"
#include "core/ira.hpp"
#include "core/retx_ira.hpp"
#include "core/separation.hpp"
#include "graph/mst.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kFeasibleBudgetExhausted:
      return "feasible_budget_exhausted";
    case SolveStatus::kCancelled:
      return "cancelled";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kNotConverged:
      return "not_converged";
  }
  return "unknown";
}

namespace {

/// x_e values at or below this are treated as zero when pruning edges.
constexpr double kZeroTolerance = 1e-7;

/// Explored-node cap of the branch-and-bound certification.
constexpr std::uint64_t kCertifyNodeBudget = 2'000'000;

/// What an engine run publishes as it goes, so that a run stopped early
/// (budget, cut-round cap) still has a certified dual bound: the first
/// outer iteration's LP optimum.  In kDirect mode that LP relaxes the full
/// problem at LC, hence bounds OPT(LC) from below; in kPaperStrict mode it
/// runs at L' > LC and bounds OPT(L') instead, so `solve` only trusts it
/// after a direct run.
struct EngineProgress {
  double first_lp_objective = 0.0;
  bool first_lp_valid = false;
};

/// Bumps the lazily-registered per-variant solve counter and the variant
/// gauge (mrlc_solve eagerly registers all names so every metric document
/// carries the full set).
void record_variant_solve(const ProblemVariant& variant) {
  metrics::counter(std::string("ira.variant_solves.") + variant.name()).add();
  metrics::gauge("solver.variant").set(static_cast<double>(variant.id()));
}

/// The shared iterative-relaxation engine (Algorithm 1 generalised over
/// `ProblemVariant`).  Throws InfeasibleError, BudgetExhaustedError and
/// NotConvergedError; the result's status is always kOptimal.
SolveResult run_variant_ira(const ProblemVariant& variant,
                            const wsn::Network& net, double requested_bound,
                            const IraOptions& options,
                            EngineProgress* progress = nullptr) {
  const bool metered = variant.emit_ira_metrics();
  std::optional<trace::ScopedPhase> phase;
  if (metered) {
    phase.emplace("ira");
    static metrics::Counter& solves = metrics::counter("ira.solves");
    solves.add();
    record_variant_solve(variant);
  }
  net.validate();
  MRLC_REQUIRE(requested_bound > 0.0, "lifetime bound must be positive");
  const double internal = variant.internal_bound(net, requested_bound);
  const int n = net.node_count();

  graph::Graph working = net.topology();  // the engine mutates a working copy
  // mrlc keeps the native -ln q edge weights (bit-identical objective);
  // every other variant re-weights the working copy so both the LP
  // objective and the final MST tier minimize the variant's edge cost.
  if (variant.id() != VariantId::kMrlc) {
    for (graph::EdgeId id : working.alive_edge_ids()) {
      working.set_weight(id, variant.edge_cost(net, id));
    }
  }
  const bool start_constrained = variant.constrained_at_start();
  std::vector<bool> constrained(static_cast<std::size_t>(n),
                                start_constrained);
  int constrained_count = start_constrained ? n : 0;

  IraStats stats;
  // One cut pool per solve: violated sets survive across outer iterations
  // (which rebuild the LP and would otherwise forget every subtour row) and
  // are rechecked before any new max-flow sweeps.
  SubtourCutPool cut_pool;
  CutLoopOptions cut_options;
  cut_options.simplex = options.simplex;
  cut_options.max_rounds = options.max_cut_rounds;
  cut_options.warm_start = options.warm_start;
  // The pool is deliberately not gated on warm_start: separation then sees
  // identical fractional points in both modes, so warm vs cold differ only
  // in pivot paths — the invariant the warm/cold property tests pin down.
  // A caller-owned shared pool (the service warm cache) replaces the
  // per-solve one wholesale, so remembered sets outlive this solve.
  cut_options.pool =
      options.shared_pool != nullptr ? options.shared_pool : &cut_pool;
  cut_options.budget = options.budget;

  // An unconstrained variant (min_energy) still owes one certified LP
  // round; `first` lets it through with W = ∅.
  bool first = true;
  while (first || constrained_count > 0) {
    first = false;
    // Deterministic checkpoint: a budget that ran out during the previous
    // iteration's pruning stops here before the next (expensive) LP tier.
    if (options.budget != nullptr && options.budget->exhausted()) {
      throw BudgetExhaustedError(variant.checkpoint_message());
    }
    ++stats.outer_iterations;

    DegreeBounds rows = variant.bounds(net, constrained, internal);
    MrlcLpFormulation formulation(working, std::move(rows.caps),
                                  std::move(rows.row_weight));
    const CutLpResult lp_result =
        solve_with_subtour_cuts(formulation, cut_options);
    stats.lp_solves += lp_result.lp_solves;
    stats.simplex_iterations += lp_result.simplex_iterations;
    stats.cuts_added += lp_result.cuts_added;
    stats.cold_fallbacks += lp_result.cold_fallbacks;

    // Publish the dual bound as soon as the first outer iteration has any
    // completed cut-round optimum — every completed round solves a
    // relaxation of the full problem (see EngineProgress for the mode
    // caveat), so this is valid even when the same solve stops just after.
    if (progress != nullptr && stats.outer_iterations == 1 &&
        lp_result.has_objective) {
      progress->first_lp_objective = lp_result.objective;
      progress->first_lp_valid = true;
    }

    if (lp_result.status == lp::SolveStatus::kInfeasible) {
      throw InfeasibleError(
          variant.infeasible_message(requested_bound, internal));
    }
    if (lp_result.status == lp::SolveStatus::kInterrupted) {
      throw BudgetExhaustedError(variant.interrupted_message(
          stats.outer_iterations, stats.lp_solves));
    }
    if (lp_result.status == lp::SolveStatus::kIterationLimit) {
      std::ostringstream os;
      os << variant.lp_failed_message() << " (outer iteration "
         << stats.outer_iterations << ", after " << stats.lp_solves
         << " LP solves)";
      throw NotConvergedError(os.str());
    }
    MRLC_ENSURE(lp_result.status == lp::SolveStatus::kOptimal,
                variant.lp_failed_message());

    // Line 6: drop edges outside the support of the extreme point.
    for (graph::EdgeId id : working.alive_edge_ids()) {
      if (lp_result.edge_values[static_cast<std::size_t>(id)] <=
          kZeroTolerance) {
        working.remove_edge(id);
        ++stats.edges_removed;
      }
    }
    if (constrained_count == 0) break;  // W = ∅ from the start (min_energy)

    // Line 8: relax every vertex whose constraint can no longer bind.
    int removed_this_round = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!constrained[static_cast<std::size_t>(v)]) continue;
      if (variant.row_removable(net, working, v, requested_bound)) {
        constrained[static_cast<std::size_t>(v)] = false;
        --constrained_count;
        ++removed_this_round;
        ++stats.constraints_removed;
      }
    }

    if (removed_this_round == 0) {
      // Theorem 2 rules this out at exact extreme points; floating-point
      // cuts can produce it.  Remove the slackest vertex; the returned
      // tree still gets its final feasibility check.
      stats.used_fallback = true;
      graph::VertexId best = -1;
      double best_slack = -std::numeric_limits<double>::infinity();
      for (graph::VertexId v = 0; v < n; ++v) {
        if (!constrained[static_cast<std::size_t>(v)]) continue;
        const double slack =
            variant.removal_slack(net, working, v, requested_bound);
        if (slack > best_slack) {
          best_slack = slack;
          best = v;
        }
      }
      MRLC_ENSURE(best != -1, "constrained set empty despite counter");
      constrained[static_cast<std::size_t>(best)] = false;
      --constrained_count;
      ++stats.constraints_removed;
    }
  }

  if (metered) {
    static metrics::Counter& iterations =
        metrics::counter("ira.outer_iterations");
    static metrics::Counter& lp_solves = metrics::counter("ira.lp_solves");
    static metrics::Counter& cuts = metrics::counter("ira.cuts_added");
    static metrics::Counter& edges = metrics::counter("ira.edges_removed");
    static metrics::Counter& relaxed =
        metrics::counter("ira.constraints_relaxed");
    static metrics::Counter& fallbacks =
        metrics::counter("ira.slack_fallbacks");
    static metrics::Histogram& iter_hist =
        metrics::histogram("ira.iterations_per_solve");
    iterations.add(stats.outer_iterations);
    lp_solves.add(stats.lp_solves);
    cuts.add(stats.cuts_added);
    edges.add(stats.edges_removed);
    relaxed.add(stats.constraints_removed);
    if (stats.used_fallback) fallbacks.add();
    iter_hist.record(stats.outer_iterations);
  }

  // W = ∅: LP(G, L', ∅) is the Subtour LP, whose extreme points are
  // integral (Lemma 1) — equivalently, the MST of the surviving edges.
  const auto mst = graph::prim_mst(working, net.sink());
  if (!mst.has_value()) {
    throw InfeasibleError(variant.disconnected_message());
  }

  SolveResult out;
  out.status = SolveStatus::kOptimal;
  out.tree = wsn::AggregationTree::from_edges(net, mst->edges);
  out.objective = variant.tree_objective(net, out.tree);
  out.cost = wsn::tree_cost(net, out.tree);
  out.reliability = wsn::tree_reliability(net, out.tree);
  out.lifetime = wsn::network_lifetime(net, out.tree);
  out.bound_metric = variant.bound_metric(net, out.tree);
  out.internal_bound = internal;
  out.meets_bound = variant.tree_feasible(net, out.tree, requested_bound);
  out.stats = stats;
  return out;
}

/// max_lifetime: the lifetime of any tree is I(v)/(Tx + Rx*k) for its
/// bottleneck node v with k children, so the achievable values form a small
/// discrete ladder.  The scan finds the top rung any tree can stand on:
/// LP feasibility probes certify the upper bound (infeasible at c => no
/// tree reaches c), direct-mode IRA solves construct trees, and the
/// lexicographic-AAML tree backstops candidates the near-integral LP
/// constructs but IRA's bounded violation misses.
SolveResult solve_max_lifetime(const wsn::Network& net, double floor_bound,
                               const IraOptions& options) {
  const ProblemVariant& variant = problem_variant(VariantId::kMaxLifetime);
  trace::ScopedPhase phase("ira");
  static metrics::Counter& solves = metrics::counter("ira.solves");
  solves.add();
  record_variant_solve(variant);
  net.validate();
  MRLC_REQUIRE(floor_bound > 0.0, "lifetime bound must be positive");

  const std::vector<double> ladder = lifetime_candidates(net);

  // Binary search the top LP-feasible rung: lp_lifetime_feasible is
  // monotone (caps only grow as the bound shrinks), so everything above
  // `hi` is certified unreachable.
  IraStats stats;
  auto checkpoint = [&]() {
    if (options.budget != nullptr && options.budget->exhausted()) {
      throw BudgetExhaustedError(variant.checkpoint_message());
    }
  };
  std::size_t lo = 0;              // invariant: ladder[lo] is LP-feasible
  std::size_t hi = ladder.size();  // invariant: rungs >= hi are infeasible
  checkpoint();
  if (!lp_lifetime_feasible(net, ladder.front(), options)) {
    throw InfeasibleError(variant.infeasible_message(floor_bound, 0.0));
  }
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    checkpoint();
    ++stats.outer_iterations;
    if (lp_lifetime_feasible(net, ladder[mid], options)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double certified_upper = ladder[lo];

  // Constructive side: walk the feasible rungs downward with direct-mode
  // IRA, keeping the lexicographic-AAML tree as the deployable backstop.
  baselines::AamlOptions aaml_options;
  aaml_options.mode = baselines::AamlSearchMode::kLexicographic;
  aaml_options.initial = baselines::AamlInitialTree::kBfs;
  const baselines::AamlResult aaml = baselines::aaml(net, aaml_options);

  std::optional<wsn::AggregationTree> best_tree;
  double best_lifetime = -1.0;
  for (std::size_t i = lo + 1; i-- > 0;) {
    const double candidate = ladder[i];
    if (candidate <= aaml.lifetime) break;  // the backstop already wins
    checkpoint();
    try {
      const SolveResult res = run_variant_ira(mrlc_variant(BoundMode::kDirect),
                                              net, candidate, options);
      stats.outer_iterations += res.stats.outer_iterations;
      stats.lp_solves += res.stats.lp_solves;
      stats.simplex_iterations += res.stats.simplex_iterations;
      stats.cuts_added += res.stats.cuts_added;
      stats.edges_removed += res.stats.edges_removed;
      stats.constraints_removed += res.stats.constraints_removed;
      stats.cold_fallbacks += res.stats.cold_fallbacks;
      stats.used_fallback = stats.used_fallback || res.stats.used_fallback;
      if (res.lifetime > best_lifetime) {
        best_lifetime = res.lifetime;
        best_tree = res.tree;
      }
      if (res.meets_bound) break;  // top reachable rung found
    } catch (const InfeasibleError&) {
      // LP-feasible but no integral tree survived the relaxation at this
      // rung; step down.
    }
  }
  if (!best_tree.has_value() || aaml.lifetime > best_lifetime) {
    best_tree = aaml.tree;
    best_lifetime = aaml.lifetime;
  }

  SolveResult out;
  out.status = SolveStatus::kOptimal;
  out.tree = *best_tree;
  out.objective = wsn::network_lifetime(net, out.tree);
  out.cost = wsn::tree_cost(net, out.tree);
  out.reliability = wsn::tree_reliability(net, out.tree);
  out.lifetime = out.objective;
  out.bound_metric = out.objective;
  out.internal_bound = certified_upper;
  out.meets_bound = out.objective >= floor_bound * (1.0 - 1e-12);
  out.stats = stats;
  if (!out.meets_bound) {
    throw InfeasibleError(
        variant.infeasible_message(floor_bound, certified_upper));
  }
  return out;
}

/// A feasible tree obtained without any LP work.
struct Incumbent {
  bool valid = false;
  wsn::AggregationTree tree;
  bool meets_bound = false;
  const char* origin = "none";
};

/// The incumbent: the lexicographic-AAML tree for max_lifetime (always a
/// spanning tree, and the strongest LP-free lifetime heuristic in the
/// repo); for the minimizing variants the MST under the variant's own edge
/// costs — the unconstrained objective optimum, so when it satisfies the
/// variant's rows the solve only has to certify it (for mrlc the costs are
/// the topology weights -ln q, so this is `mst_baseline`'s tree).  When the
/// MST misses the bound, the degree-capped greedy tree replaces it if it
/// meets the bound; when neither does, the MST is kept as the best-effort
/// fallback, reported honestly through `meets_bound = false`.
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

double IterativeRelaxation::strict_bound(const wsn::Network& net,
                                         double lifetime_bound) {
  MRLC_REQUIRE(lifetime_bound > 0.0, "lifetime bound must be positive");
  const double i_min = net.min_initial_energy();
  const double rx = net.energy_model().rx_joules;
  const double denom = i_min - 2.0 * rx * lifetime_bound;
  if (denom <= 0.0) {
    std::ostringstream os;
    os << "lifetime bound " << lifetime_bound
       << " leaves no relaxation headroom: I_min - 2*Rx*LC = " << denom
       << " <= 0, so the strict bound L' of Algorithm 1 is undefined";
    throw InfeasibleError(os.str());
  }
  return i_min * lifetime_bound / denom;
}

IraResult IterativeRelaxation::solve(const wsn::Network& net,
                                     double lifetime_bound) const {
  IraResult out = run_variant_ira(mrlc_variant(options_.bound_mode), net,
                                  lifetime_bound, options_);
  out.bound_mode = options_.bound_mode;
  return out;
}

// The historical retx-aware solve is the mrlc objective (-ln q) under the
// etx variant's conservative energy rows, through the retx-mrlc adapter,
// which keeps the historical diagnostics and opts out of the `ira.*`
// metrics.
SolveResult retx_aware_ira(const wsn::Network& net, double lifetime_bound,
                           const IraOptions& options) {
  return run_variant_ira(retx_mrlc_variant(), net, lifetime_bound, options);
}

SolveResult solve(const wsn::Network& net, const SolveRequest& request) {
  const bool anytime = request.ira.budget != nullptr;
  std::optional<trace::ScopedPhase> phase;
  if (anytime) phase.emplace("anytime");
  const double bound = request.bound;
  MRLC_REQUIRE(bound > 0.0, "lifetime bound must be positive");
  const ProblemVariant& variant = problem_variant(request.variant);
  const bool mrlc = request.variant == VariantId::kMrlc;

  SolveResult out;
  Incumbent incumbent;
  EngineProgress progress;
  BoundMode ran = BoundMode::kDirect;
  // Runs the engine in one resolved bound mode.
  auto run = [&](BoundMode mode) {
    ran = mode;
    progress = {};
    if (request.variant == VariantId::kMaxLifetime) {
      return solve_max_lifetime(net, bound, request.ira);
    }
    return run_variant_ira(mrlc ? mrlc_variant(mode) : variant, net, bound,
                           request.ira, &progress);
  };
  // Fills the tree-derived fields and the certified gap.
  auto finish = [&](const wsn::AggregationTree& tree, double dual_bound) {
    out.tree = tree;
    out.objective = variant.tree_objective(net, out.tree);
    out.cost = wsn::tree_cost(net, out.tree);
    out.reliability = wsn::tree_reliability(net, out.tree);
    out.lifetime = wsn::network_lifetime(net, out.tree);
    out.bound_metric = variant.bound_metric(net, out.tree);
    out.meets_bound = variant.tree_feasible(net, out.tree, bound);
    out.dual_bound = dual_bound;
    out.gap = variant.maximizing()
                  ? std::max(out.dual_bound - out.objective, 0.0)
                  : std::max(out.objective - out.dual_bound, 0.0);
  };
  // Lower bound for the minimizing variants: a completed first LP round of
  // a direct run, else 0 (every variant's edge costs are >= 0).
  auto minimizing_dual = [&]() {
    return ran == BoundMode::kDirect && progress.first_lp_valid
               ? std::max(progress.first_lp_objective, 0.0)
               : 0.0;
  };
  // An interrupted solve returns the (lazily seeded) incumbent with the
  // weakest sound bound in each direction — for max_lifetime the ladder
  // top, the lifetime of the richest node with zero children.
  auto return_incumbent = [&](SolveStatus status, const std::string& why) {
    if (!incumbent.valid) incumbent = seed_incumbent(variant, net, bound);
    if (!incumbent.valid) {
      out.status = SolveStatus::kInfeasible;
      out.message = why + " with no incumbent";
      return;
    }
    out.status = status;
    out.bound_mode = ran;
    out.from_incumbent = true;
    finish(incumbent.tree, variant.maximizing()
                               ? lifetime_candidates(net).back()
                               : minimizing_dual());
    std::ostringstream os;
    os << why << "; returning the " << incumbent.origin
       << " incumbent, certified gap " << out.gap;
    out.message = os.str();
  };

  try {
    if (anytime) {
      net.validate();  // the incumbent needs a connected topology
      incumbent = seed_incumbent(variant, net, bound);
    }
    // The anytime contract forces kDirect (see file comment); the other
    // variants' rows always sit at LC.
    const BoundMode mode =
        anytime || !mrlc ? BoundMode::kDirect : request.ira.bound_mode;
    SolveResult res;
    if (mode != BoundMode::kAuto) {
      res = run(mode);
    } else {
      try {
        res = run(BoundMode::kPaperStrict);
      } catch (const InfeasibleError&) {
        if (!lp_lifetime_feasible(net, bound, request.ira)) {
          const LifetimeBracket bracket =
              bracket_max_lifetime(net, 1e-4, request.ira);
          std::ostringstream os;
          os << "no aggregation tree reaches lifetime " << bound
             << "; achievable lifetime is in [" << bracket.lower << ", "
             << bracket.upper << "] rounds";
          throw InfeasibleError(os.str());
        }
        res = run(BoundMode::kDirect);
      }
    }
    out.status = SolveStatus::kOptimal;
    out.bound_mode = ran;
    out.internal_bound = res.internal_bound;
    out.stats = res.stats;
    // Prefer the solver's tree; under the anytime contract fall back to a
    // bound-meeting incumbent when the direct relaxation overshot the
    // bound and the incumbent did not.
    out.from_incumbent =
        !res.meets_bound && incumbent.valid && incumbent.meets_bound;
    finish(out.from_incumbent ? incumbent.tree : res.tree,
           variant.maximizing() ? res.internal_bound : minimizing_dual());
    std::ostringstream os;
    os << variant.name() << " solve converged after "
       << res.stats.outer_iterations << " outer iterations";
    if (out.from_incumbent) {
      os << "; returned the " << incumbent.origin
         << " incumbent (solver tree missed the bound, incumbent meets it)";
    }
    out.message = os.str();
  } catch (const InfeasibleError& e) {
    out.status = SolveStatus::kInfeasible;
    out.message = e.what();
    return out;
  } catch (const BudgetExhaustedError& e) {
    // Lazily registered: budget-free runs never add this key, keeping the
    // stock bench metric documents byte-identical.
    static metrics::Counter& budget_hits =
        metrics::counter("solver.budget_hits");
    budget_hits.add();
    const bool cancelled =
        request.ira.budget != nullptr && request.ira.budget->cancelled();
    return_incumbent(
        cancelled ? SolveStatus::kCancelled
                  : SolveStatus::kFeasibleBudgetExhausted,
        std::string(cancelled ? "cancelled" : "budget exhausted") + " (" +
            e.what() + ")");
  } catch (const NotConvergedError& e) {
    return_incumbent(SolveStatus::kNotConverged,
                   std::string("not converged (") + e.what() + ")");
  }

  // Certification only means something when the tree meets the bound: a
  // direct-mode tree that violates by up to two children competes in a
  // larger feasible set and can legitimately cost less than OPT(LC).
  if (request.certify && mrlc && out.meets_bound) {
    BranchBoundOptions bb;
    bb.max_nodes_explored = kCertifyNodeBudget;
    try {
      const auto exact =
          branch_bound_variant(VariantId::kMrlc, net, bound, bb);
      if (exact.has_value()) {
        out.exact_cost = exact->cost;
        out.dual_bound = exact->cost;
        out.gap = std::max(out.objective - exact->cost, 0.0);
      }
    } catch (const std::invalid_argument&) {
      // Node budget exceeded: leave the certification empty.
    }
  }
  return out;
}

}  // namespace mrlc::core
