#pragma once

/// \file simplex.hpp
/// \brief Shared LP solver types and the stateless `SimplexSolver` facade.
///
/// Two interchangeable engines implement the simplex method behind the
/// persistent `lp::LpInstance` (instance.hpp):
///
///  * **sparse** (sparse.hpp, the default): a bounded-variable revised
///    simplex over CSR/CSC row storage with a product-form factorized
///    basis, devex pricing and periodic refactorization.  Finite variable
///    bounds (the `x_e <= 1` box of every MRLC edge variable, weighted
///    degree caps) are handled implicitly by the ratio test instead of
///    being expanded into explicit tableau rows, which is what makes
///    n in the hundreds-to-thousands tractable;
///  * **dense** (dense.hpp): the historical dense two-phase tableau,
///    retained verbatim as a numerical cross-check oracle
///    (`SimplexOptions::cross_check`) and for A/B comparison.
///
/// Both return *basic feasible* optima, i.e. extreme points of the feasible
/// polytope — exactly what the Iterative Relaxation Algorithm needs
/// (Algorithm 1, Line 5 asks for "an extreme point solution of
/// LP(G, L', W)").  Anti-cycling in both engines: an automatic switch to
/// Bland's rule on long degenerate streaks guards against cycling on the
/// degenerate spanning-tree polytopes these LPs produce.

#include <vector>

#include "common/budget.hpp"
#include "lp/model.hpp"

namespace mrlc::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The attached `Budget` (SimplexOptions::budget) ran out mid-solve.
  /// Distinct from kIterationLimit (the solver's own pivot cap) so
  /// `core::solve` can report "budget exhausted" rather than "not
  /// converged".  The basis is abandoned; callers must not read `values`.
  kInterrupted,
};

/// Which simplex implementation an `LpInstance` runs.
enum class Engine {
  /// Resolve to the process-wide default (`lp::default_engine()`).
  kDefault,
  /// Sparse bounded-variable revised simplex (sparse.hpp).
  kSparse,
  /// Dense two-phase tableau (dense.hpp) — the cross-check oracle.
  kDense,
};

/// \brief Process-wide engine used when `SimplexOptions::engine` is
/// `Engine::kDefault`.  Starts as `Engine::kSparse`.
/// \return the current default engine (never `Engine::kDefault`).
Engine default_engine() noexcept;

/// \brief Overrides the process-wide default engine (CLI `--engine`).
/// \param engine  `kSparse` or `kDense`; `kDefault` is rejected.
void set_default_engine(Engine engine);

/// \brief Process-wide default for `SimplexOptions::cross_check` (CLI
/// `--lp-crosscheck`): when set, every `LpInstance` runs the dense shadow
/// oracle even if its own options don't ask for it.
/// \return the current default (starts false).
bool default_cross_check() noexcept;

/// \brief Sets the process-wide cross-check default.
/// \param enabled  true to audit every sparse solve against the dense
///                 oracle (roughly doubles LP cost).
void set_default_cross_check(bool enabled) noexcept;

/// Entering-variable pricing rule of the sparse engine (the dense oracle
/// always prices with Dantzig's rule, as it historically did).
enum class Pricing {
  /// Devex reference-framework weights (Harris): near-steepest-edge
  /// quality at Dantzig cost.  The default.
  kDevex,
  /// Devex updates plus *exact* steepest-edge weight recomputation
  /// (gamma_j = 1 + ||B^-1 A_j||^2) at every refactorization.
  kSteepestEdge,
  /// Most-negative reduced cost, no weights.  A/B baseline.
  kDantzig,
};

/// Result of a solve.  `values` / `is_basic` are indexed by the model's
/// variable ids.  `is_basic` marks variables that are basic in the final
/// tableau; nonbasic variables sit exactly at a bound.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::vector<bool> is_basic;
  int iterations = 0;
  /// True when this solve reoptimized from a previous basis (dual simplex
  /// warm start, `LpInstance::resolve`) instead of a cold two-phase run.
  bool warm_started = false;
};

/// Bit-exact image of an engine's factorized basis, exposed for the
/// fault-replay tests: two instances that executed the same solve/sync
/// trajectory must produce `==`-equal snapshots (including every double).
struct BasisSnapshot {
  /// Per basis row: the engine-internal column id that is basic in it.
  std::vector<int> basic;
  /// Per basis row: the primal value of that basic column.
  std::vector<double> basic_values;
  /// Per engine-internal column: 1 when nonbasic at its upper bound
  /// (sparse engine only; dense encodes bounds as rows and leaves this
  /// empty).
  std::vector<signed char> nonbasic_at_upper;

  bool operator==(const BasisSnapshot& other) const {
    return basic == other.basic && basic_values == other.basic_values &&
           nonbasic_at_upper == other.nonbasic_at_upper;
  }
};

/// Solver options.
struct SimplexOptions {
  double pivot_tolerance = 1e-9;      ///< entries smaller than this can't pivot
  double cost_tolerance = 1e-9;       ///< reduced costs above -tol are optimal
  int max_iterations = 200000;        ///< hard cap across both phases
  int bland_after = 5000;             ///< switch to Bland's rule after this many
                                      ///< pivots without objective progress
  /// Anti-cycling: also switch to Bland's rule after this many *consecutive*
  /// degenerate (zero-ratio) pivots.  Degenerate spanning-tree polytopes can
  /// stall long before `bland_after` fires on total non-progress; a streak
  /// this long is the signature of an incipient cycle.  Each switchover is
  /// counted in `simplex.bland_activations`.
  int bland_degenerate_streak = 40;
  /// Optional cooperative budget, charged one unit per pivot (the pivot
  /// loops are serial, so the charge points are deterministic).  When it
  /// runs out mid-solve the status is `kInterrupted`.  Not owned; null
  /// means unlimited and leaves the solver's behavior bit-identical to a
  /// budget-free build.
  Budget* budget = nullptr;
  /// Engine selection; `kDefault` resolves to `lp::default_engine()` at
  /// `LpInstance` construction time.
  Engine engine = Engine::kDefault;
  /// Entering-variable pricing of the sparse engine.
  Pricing pricing = Pricing::kDevex;
  /// Sparse engine: refactorize (reinvert the product-form basis) after
  /// this many pivots.  Each reinversion also recomputes the basic values
  /// and reduced costs from scratch, and the drift between incremental and
  /// recomputed values is checked against `drift_tolerance`.
  int refactor_interval = 64;
  /// Sparse engine: incremental basic values that drift further than this
  /// from their refactorized recomputation count as a numerical-drift
  /// event (`simplex.sparse_drift_events`); the recomputed values win.
  double drift_tolerance = 1e-7;
  /// Run the dense tableau as a shadow oracle next to the sparse engine:
  /// every solve/resolve is executed by both, and a status or objective
  /// disagreement (or a sparse solution that violates the model) throws.
  /// Testing/CI only — roughly doubles solve cost.  Ignored when the
  /// resolved engine is already dense.
  bool cross_check = false;
  /// Record `simplex.*` metrics for this instance's solves.  The dense
  /// shadow oracle runs with this off so cross-checked runs don't
  /// double-count pivots.
  bool record_metrics = true;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves `model` (minimization).  Never throws on infeasible/unbounded
  /// inputs — that is reported via `Solution::status`.
  ///
  /// Stateless facade: each call performs a cold solve with the configured
  /// engine.  Callers that re-solve the same LP after row additions
  /// (cutting planes) should hold an `lp::LpInstance` (instance.hpp) and
  /// use its warm-started `resolve` path instead.
  Solution solve(const Model& model) const;

  const SimplexOptions& options() const noexcept { return options_; }

 private:
  SimplexOptions options_;
};

}  // namespace mrlc::lp
