#pragma once

/// \file anytime.hpp
/// \brief Deadline-aware anytime front end over the variant solver.
///
/// `IterativeRelaxation::solve` is all-or-nothing: it either converges or
/// throws.  Production callers with a latency budget need the opposite
/// contract — *always* return the best tree found so far, say how good it
/// is, and never turn "ran out of time" into an exception.  This layer
/// provides that:
///
/// 1. **Incumbent first.**  Before any LP work, a cheap tree is seeded:
///    the MST under the variant's edge costs (the global cost minimum, so
///    it wins whenever it meets the bound), else the degree-capped greedy
///    baseline when that meets it; max_lifetime seeds the lexicographic
///    AAML tree.  Even a budget of zero work units yields a usable answer.
/// 2. **Cooperative interruption.**  The shared `Budget` token is threaded
///    through every pivot, max-flow, and outer iteration; exhaustion
///    surfaces as `BudgetExhaustedError` at a deterministic checkpoint and
///    is caught here.
/// 3. **Certified gap.**  The first outer iteration's LP optimum (captured
///    via `IraProgress`, valid because the run is forced into kDirect mode
///    where the LP relaxes the problem at LC itself) is a lower bound on
///    OPT(LC); every variant's edge costs are nonnegative, so 0 is a valid
///    fallback bound and the reported gap is always finite.
///
/// Every variant, mrlc included, runs the same body: `solve_variant` under
/// the budget, then the incumbent fallback.
///
/// Budget exhaustion, infeasibility, and cancellation all come back as a
/// typed `AnytimeStatus` — the only exceptions that escape are genuine
/// precondition violations and internal logic errors.

#include <string>

#include "common/budget.hpp"
#include "core/ira.hpp"
#include "core/variant.hpp"

namespace mrlc::core {

enum class AnytimeStatus {
  /// The IRA run converged; `tree` is its output and the gap is certified.
  kOptimal,
  /// The budget ran out; `tree` is the best incumbent with a finite
  /// certified gap.  Check `meets_bound` (false only when no seeded or
  /// discovered tree satisfied LC, e.g. greedy needed cap relaxations).
  kFeasibleBudgetExhausted,
  /// No aggregation tree with lifetime >= LC exists; no tree is returned.
  kInfeasible,
  /// `Budget::cancel()` was observed; otherwise like budget exhaustion.
  kCancelled,
};

/// \return stable lower-case identifier ("optimal", "feasible_budget_
/// exhausted", "infeasible", "cancelled") for logs and CLI output.
const char* to_string(AnytimeStatus status) noexcept;

struct AnytimeResult {
  AnytimeStatus status = AnytimeStatus::kInfeasible;
  /// The problem variant this result answers (echoes the option).
  VariantId variant = VariantId::kMrlc;
  /// Best tree found (incumbent or IRA output); meaningless when
  /// `status == kInfeasible`.
  wsn::AggregationTree tree;
  double cost = 0.0;
  double reliability = 0.0;
  double lifetime = 0.0;
  /// The solved variant's objective of `tree` (== `cost` for mrlc).
  double objective = 0.0;
  bool meets_bound = false;
  /// Certified bound on the variant optimum, in objective units.  For the
  /// minimizing variants: a lower bound — the first completed LP round's
  /// optimum when one completed, else 0 (valid since edge costs are >= 0).
  /// For max_lifetime: an *upper* bound — the LP-certified top rung when
  /// the scan completed, else the ladder maximum I_max/Tx.
  double dual_bound = 0.0;
  /// |objective - dual_bound| clamped at >= 0; finite whenever a tree is
  /// returned.  0 does NOT imply proven optimality (the dual bound is a
  /// relaxation), but small gaps certify near-optimality.
  double gap = 0.0;
  /// True when `tree` is the seeded incumbent rather than solver output.
  bool from_incumbent = false;
  /// IRA statistics for whatever portion of the solve ran.
  IraStats stats;
  /// One-line human-readable outcome (why the run stopped).
  std::string message;
};

struct AnytimeOptions {
  /// Inner IRA configuration.  `bound_mode` is forced to kDirect — the
  /// strict mode's first LP runs at L' > LC, whose optimum does not bound
  /// OPT(LC), so it cannot certify an anytime gap.  `budget`/`progress`
  /// are managed by the anytime layer.
  IraOptions ira;
  /// Cooperative budget (not owned); null runs to completion.
  Budget* budget = nullptr;
  /// Which problem to solve.  Every variant routes through
  /// `solve_variant` with variant-appropriate incumbents (MST under the
  /// variant's costs, degree-capped greedy as the fallback, lexicographic
  /// AAML for max_lifetime) and reports the certified gap in the variant's
  /// objective units.  For mrlc the tree, gap and stats equal a direct-mode
  /// `IterativeRelaxation` run.
  VariantId variant = VariantId::kMrlc;
};

/// \brief Solves `options.variant` with anytime semantics (see file
/// comment).
/// \param net  validated, connected network instance.
/// \param lifetime_bound  required network lifetime LC, in rounds (> 0).
/// \param options  inner IRA knobs, the variant, and the budget token.
/// \return typed status, best tree + metrics, certified dual bound/gap.
/// \throws std::invalid_argument / std::logic_error for broken
///         preconditions or internal invariants only — never for budget
///         exhaustion or infeasible instances.
AnytimeResult solve_anytime(const wsn::Network& net, double lifetime_bound,
                            const AnytimeOptions& options = {});

}  // namespace mrlc::core
