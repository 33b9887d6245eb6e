#pragma once

/// \file ira.hpp
/// \brief The Iterative Relaxation Algorithm (Algorithm 1 of the paper) —
/// the centralized solution to the MRLC problem.
///
/// IRA keeps a working copy of the topology and a shrinking set W of
/// lifetime-constrained vertices.  Each iteration solves the LP relaxation
/// LP(G, L', W) to an extreme point, deletes edges whose x_e is zero, and
/// removes from W any vertex whose lifetime constraint can no longer be
/// violated (its support degree is already low enough, Line 8).  Theorem 2
/// guarantees such a vertex exists at a true extreme point; once W is
/// empty the LP degenerates to the Subtour LP, whose extreme points are
/// integral (Lemma 1) — i.e. the answer is the minimum spanning tree of the
/// surviving edges.
///
/// L' = I_min * LC / (I_min - 2 * Rx * LC) is deliberately stricter than LC
/// (about two children of headroom per node), so the relaxation steps never
/// push a node's lifetime below LC.  IRA therefore either (a) proves no
/// aggregation tree with lifetime >= LC exists, or (b) returns one whose
/// cost is at most OPT(L').

#include "core/solve.hpp"

namespace mrlc::core {

/// The engine's raw result: a `SolveResult` whose status is always
/// kOptimal (every other outcome throws).
using IraResult = SolveResult;

/// \brief The engine's raw, throwing mrlc call.  Kept for the repository
/// benchmark (perfbench/) and for engine-level tests; every other caller
/// goes through `core::solve`, which adds the typed statuses, kAuto, the
/// anytime contract and certification on top of the same engine.
class IterativeRelaxation {
 public:
  explicit IterativeRelaxation(IraOptions options = {}) : options_(options) {}

  /// \brief Solves MRLC on `net` with lifetime threshold `lifetime_bound`.
  /// \param net  validated, connected network instance.
  /// \param lifetime_bound  the required network lifetime LC, in rounds
  ///        (> 0).
  /// \return the constructed tree with its cost/reliability/lifetime, the
  ///         L' used (`internal_bound`) and per-solve statistics; check
  ///         `meets_bound` in kDirect mode.
  /// \throws std::invalid_argument for bound_mode kAuto (only
  ///         `core::solve` resolves it).
  /// \throws InfeasibleError when no aggregation tree with lifetime >= LC
  ///         exists (LP infeasible), when the topology is disconnected, or
  ///         when LC is too aggressive for the paper's L' construction
  ///         (I_min - 2*Rx*LC <= 0, which makes L' meaningless).
  /// \throws BudgetExhaustedError / NotConvergedError when an attached
  ///         budget runs out or an LP stops at its cap.
  IraResult solve(const wsn::Network& net, double lifetime_bound) const;

  /// \brief The strict internal bound L' (Line 3 of Algorithm 1); exposed
  /// for tests and benchmarks.
  /// \param net  the network whose minimum initial energy defines I_min.
  /// \param lifetime_bound  the user-facing LC, in rounds (> 0).
  /// \return L' = I_min * LC / (I_min - 2 * Rx * LC), always > LC.
  /// \throws InfeasibleError when I_min - 2*Rx*LC <= 0 (L' undefined).
  static double strict_bound(const wsn::Network& net, double lifetime_bound);

 private:
  IraOptions options_;
};

}  // namespace mrlc::core
