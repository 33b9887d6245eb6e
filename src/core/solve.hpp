#pragma once

/// \file solve.hpp
/// \brief `core::solve` — the one front door to the aggregation-tree
/// solvers.
///
/// The paper has one construction algorithm, Algorithm 1, run either with
/// the strict bound L' or directly at LC; the repository runs it for four
/// problem variants over one LP relaxation (core/variant.hpp).  A caller
/// describes the problem in a `SolveRequest` and gets back a `SolveResult`
/// carrying one typed `SolveStatus`.  Three request fields pick the
/// policy:
///
/// * **Bound mode** (`ira.bound_mode`, mrlc only): `kPaperStrict` runs
///   Algorithm 1 at L', `kDirect` at LC, and `kAuto` tries strict first —
///   when strict fails but LC is LP-achievable it runs direct, otherwise it
///   reports infeasible with the achievable-lifetime bracket in `message`.
/// * **Budget** (`ira.budget`): null runs to completion and does exactly
///   the engine work.  Non-null selects the anytime contract: the bound
///   mode is forced to `kDirect` (its first LP relaxes the problem at LC,
///   so its optimum certifies a gap), a cheap incumbent is seeded before
///   any LP work, that incumbent replaces a solver tree that misses the
///   bound, and exhaustion returns it with a certified gap.
/// * **Certify** (mrlc only): when the returned tree meets the bound,
///   branch-and-bound computes the exact optimum (within a fixed node
///   budget), which then serves as the dual bound.
///
/// Infeasibility, budget exhaustion, cancellation, and a cut loop that
/// stops at `ira.max_cut_rounds` all come back as a status — the last one
/// with a lazily seeded incumbent.  Only broken preconditions throw
/// (`std::invalid_argument`), plus `std::logic_error` for internal
/// invariants.

#include <optional>
#include <string>

#include "common/budget.hpp"
#include "core/variant.hpp"
#include "lp/simplex.hpp"
#include "wsn/aggregation_tree.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {

/// Knobs of the iterative-relaxation engine.
struct IraOptions {
  BoundMode bound_mode = BoundMode::kPaperStrict;
  /// Cutting-plane rounds per LP solve.
  int max_cut_rounds = 200;
  /// Reoptimize cut rounds from the previous optimal basis (dual simplex,
  /// `lp::LpInstance`) instead of cold two-phase rebuilds, and share a
  /// subtour cut pool across the outer iterations.  Identical trees and
  /// costs either way (warm starting changes pivot paths, never the
  /// optimum); `false` reproduces the historical cold trajectories exactly
  /// and exists for A/B verification.
  bool warm_start = true;
  lp::SimplexOptions simplex;
  /// Optional caller-owned subtour cut pool shared *across* solves.  By
  /// default each solve keeps a private pool that lives for its outer
  /// iterations only; the solver service passes one pool per cached
  /// topology here so sets separated for one request seed the next
  /// (different LC, same network).  Pooled sets only ever shortcut the
  /// separation *search* — every remembered set is re-verified against the
  /// current fractional point before a row is added — so a warm solve is
  /// exactly as correct as a cold one, but on degenerate LPs it may settle
  /// on a different (equally valid) optimal vertex and hence a different
  /// tree than a pool-free run.  Callers that need byte-reproducibility
  /// against one-shot runs must leave this null (the service result cache
  /// covers exact repeats).
  SubtourCutPool* shared_pool = nullptr;
  /// Optional cooperative budget (not owned), threaded through every LP
  /// pivot and separation max-flow.  Non-null selects the anytime contract
  /// of `solve` (see file comment); null means unlimited and leaves the
  /// solve bit-identical to a budget-free run.
  Budget* budget = nullptr;
};

struct IraStats {
  int outer_iterations = 0;
  int lp_solves = 0;
  long long simplex_iterations = 0;
  int cuts_added = 0;
  int edges_removed = 0;
  int constraints_removed = 0;
  /// Warm-start attempts that abandoned their basis for a cold rebuild —
  /// a numerical-trouble signal (the service cache quarantines entries
  /// whose solve reported any).
  long long cold_fallbacks = 0;
  /// True when some outer iteration found no removable row (impossible at
  /// an exact extreme point, possible after floating-point cuts) and
  /// relaxed the row with the largest slack instead.
  bool used_fallback = false;
};

struct SolveRequest {
  VariantId variant = VariantId::kMrlc;
  /// User-facing lifetime bound LC, in rounds (> 0).  For `max_lifetime`
  /// it is a floor: the solve maximizes the lifetime and reports
  /// infeasible only when even the maximum is below it.  For `min_energy`
  /// it is advisory (reported via `meets_bound`).
  double bound = 0.0;
  IraOptions ira;
  /// Certify an mrlc tree that meets the bound against branch-and-bound.
  bool certify = false;
};

enum class SolveStatus {
  /// The solve converged; `tree` is its output.
  kOptimal,
  /// The budget ran out; `tree` is the best incumbent with a finite
  /// certified gap.  Check `meets_bound` (false only when no seeded or
  /// discovered tree satisfied LC, e.g. greedy needed cap relaxations).
  kFeasibleBudgetExhausted,
  /// `Budget::cancel()` was observed; otherwise like budget exhaustion.
  kCancelled,
  /// No aggregation tree satisfies the bound; no tree is returned.
  kInfeasible,
  /// An LP stopped at `max_cut_rounds` (or the simplex pivot cap); `tree`
  /// is a seeded incumbent with a finite certified gap.
  kNotConverged,
};

/// \return stable lower-case identifier ("optimal", "feasible_budget_
/// exhausted", "cancelled", "infeasible", "not_converged").
const char* to_string(SolveStatus status) noexcept;

struct SolveResult {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Best tree found; empty when `status == kInfeasible`.
  wsn::AggregationTree tree;
  double objective = 0.0;     ///< the variant's objective of `tree`
  double cost = 0.0;          ///< Σ -ln q (the paper's cost, every variant)
  double reliability = 0.0;   ///< Q(T)
  double lifetime = 0.0;      ///< plain Eq. 1 lifetime (rounds)
  double bound_metric = 0.0;  ///< the metric checked against the bound
  /// mrlc: the L' the rows used (== LC in direct mode); max_lifetime: the
  /// LP-certified top rung of the lifetime ladder; others: the bound.
  double internal_bound = 0.0;
  bool meets_bound = false;
  /// The bound mode that ran (never kAuto; kDirect for non-mrlc variants).
  BoundMode bound_mode = BoundMode::kDirect;
  /// Certified bound on the variant optimum, in objective units: a lower
  /// bound for the minimizing variants (the exact optimum when certified,
  /// else the first LP round's optimum when the direct mode ran one, else
  /// 0 — every edge cost is >= 0); an upper bound for max_lifetime (the
  /// certified top rung, else the ladder maximum).
  double dual_bound = 0.0;
  /// |objective - dual_bound| clamped at >= 0; finite whenever a tree is
  /// returned.  0 does NOT imply proven optimality unless certified.
  double gap = 0.0;
  /// True when `tree` is the seeded incumbent rather than solver output.
  bool from_incumbent = false;
  /// Branch-and-bound optimum when `certify` ran and finished.
  std::optional<double> exact_cost;
  /// Engine statistics for whatever portion of the solve ran.
  IraStats stats;
  /// One-line human-readable outcome (why the run stopped).
  std::string message;
};

/// \brief Solves `request` on `net` (see file comment).
/// \return typed status, best tree and its metrics, certified dual
///         bound and gap.
/// \throws std::invalid_argument for broken preconditions (bound <= 0,
///         malformed network data).
SolveResult solve(const wsn::Network& net, const SolveRequest& request);

}  // namespace mrlc::core
