#pragma once

/// \file variant.hpp
/// \brief The problem-definition interface: MRLC and its sibling problems
/// as pluggable variants over one iterative-relaxation engine.
///
/// Every solver mode in this repository is "minimize a per-edge objective
/// over spanning trees subject to per-vertex (possibly weighted) degree
/// rows" — only the objective coefficients, the rows, and the feasibility
/// predicate differ.  `ProblemVariant` captures exactly those degrees of
/// freedom so the IRA loop, the cutting-plane machinery, branch-and-bound,
/// `core::solve`, and the solver service can be shared verbatim:
///
/// | id            | objective (min)        | degree rows              |
/// |---------------|------------------------|--------------------------|
/// | `mrlc`        | Σ -ln q_e              | children caps at L'/LC   |
/// | `etx`         | Σ 1/q_e  (ETX)         | energy-per-delivered-    |
/// |               |                        | packet budgets I(v)/LC   |
/// | `min_energy`  | Σ (Tx+Rx)/q_e          | none (pure MST-as-LP)    |
/// | `max_lifetime`| -L(T)  (maximize)      | probed: caps at candidate|
/// |               |                        | lifetimes                |
///
/// * `mrlc` is the paper's problem (Algorithm 1); routed through this
///   interface it is **bit-identical** to the historical solver — trees,
///   costs, and every `ira.*`/`simplex.*` counter (gated in ci.sh).
/// * `etx` closes the loop with the ARQ data plane: with retransmit-until-
///   delivered links the expected per-round transmission count of a tree is
///   Σ 1/q_e, and a node's energy per *delivered* packet is (Tx or Rx)/q_e,
///   so the lifetime rows become the conservative weighted budgets of
///   `retx_aware_ira` (each edge charged its worst role).
/// * `min_energy` is the minimum-energy aggregation tree of Kuo, Lin and
///   Tsai (arXiv:1402.6457): minimize expected total radio energy per
///   round, (Tx+Rx)/q_e per link under ARQ.  With no lifetime rows the LP
///   is the Subtour LP, whose extreme points are integral (Lemma 1), so
///   one certified LP round reduces the problem to an MST — which the
///   brute-force battery cross-checks.
/// * `max_lifetime` is the maximum-lifetime convergecast of John et al.
///   (arXiv:1910.09793), reusing the lifetime-feasibility machinery as the
///   objective: tree lifetimes only take the discrete values
///   I(v)/(Tx + Rx·k), so the solver scans the candidate ladder with LP
///   feasibility probes (upper certificate) and direct-mode IRA solves
///   (constructive trees), with the lexicographic-AAML tree as a fallback.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/lp_formulation.hpp"
#include "wsn/aggregation_tree.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {

/// First-class solver modes.  Values are stable (wire + metrics gauge).
enum class VariantId {
  kMrlc = 0,
  kEtx = 1,
  kMinEnergy = 2,
  kMaxLifetime = 3,
};

/// Stable lower-case identifier ("mrlc", "etx", "min_energy",
/// "max_lifetime") used on the wire, in CLI flags, and in metric names.
const char* to_string(VariantId id) noexcept;

/// Parses the identifiers accepted by `to_string`; nullopt for anything
/// else (callers own the error message).
std::optional<VariantId> variant_from_string(std::string_view name) noexcept;

/// All four variants in declaration order (for sweeps and registration).
const std::vector<VariantId>& all_variants();

/// Which internal bound the LP's degree rows encode (mrlc only; every
/// other variant's rows always sit at the requested bound).
enum class BoundMode {
  /// The paper's Line 3: L' = I_min*LC / (I_min - 2*Rx*LC), about two
  /// children of headroom stricter than LC.  Guarantees the returned tree
  /// meets LC, but is undefined/infeasible for aggressive LC (any bound
  /// within two children of the maximum achievable lifetime).  This is the
  /// regime where Theorem 2's token argument holds unconditionally.
  kPaperStrict,
  /// L' = LC: the Singh–Lau-style relaxation.  Cost is at most OPT(LC) and
  /// the lifetime constraint may be violated by up to two children per node
  /// in theory (check `SolveResult::meets_bound`; violations are rare in
  /// practice because the extreme points are near-integral).  The paper's
  /// own Fig. 7 constraint levels (up to 2.5x L_AAML) are only expressible
  /// in this mode — see EXPERIMENTS.md.
  kDirect,
  /// Strict first; when strict fails but LC is LP-achievable, direct;
  /// otherwise infeasible with the achievable-lifetime bracket attached.
  /// Only `core::solve` resolves it — the engine rejects it.
  kAuto,
};

/// The discrete ladder of achievable tree lifetimes, sorted ascending and
/// deduplicated: a tree's lifetime is I(v)/(Tx + Rx*k) for its bottleneck
/// node v with k children, so only these n*n values can occur.  Shared by
/// the max_lifetime scan, its branch-and-bound cross-check, and tests.
std::vector<double> lifetime_candidates(const wsn::Network& net);

/// Conservative per-(vertex, edge) energy rate in joules per round at PRR
/// q_e: the sink only ever receives (exact Rx/q), a non-sink node is
/// charged the sender role Tx/q on every incident edge (an upper bound,
/// since Rx < Tx).  This is the row coefficient of the etx variant and of
/// `retx_aware_ira`, shared with branch-and-bound and the test battery.
double conservative_energy_rate(const wsn::Network& net, graph::VertexId v,
                                graph::EdgeId e);

/// The per-vertex LP degree rows of one outer iteration: for each vertex
/// either a cap on the (weighted) incident-edge sum or nullopt when the
/// vertex is unconstrained.  A null `row_weight` means unit coefficients
/// (the paper's plain degree rows).
struct DegreeBounds {
  std::vector<std::optional<double>> caps;
  MrlcLpFormulation::RowWeight row_weight;
};

/// One problem definition.  Implementations are stateless singletons (get
/// them via `problem_variant` / `mrlc_variant`); every hook must be pure so
/// solves stay deterministic and thread-safe.
class ProblemVariant {
 public:
  virtual ~ProblemVariant() = default;

  virtual VariantId id() const noexcept = 0;
  const char* name() const noexcept { return to_string(id()); }

  /// True when larger objective values are better (max_lifetime).  The
  /// relaxation engine always *minimizes* edge costs; a maximizing variant
  /// gets its own solve strategy inside `core::solve`.
  virtual bool maximizing() const noexcept { return false; }

  /// One-line optimality-certificate note: what the returned tree's
  /// objective is provably related to (docs, CLI reports).
  virtual const char* certificate() const noexcept = 0;

  // -- objective ----------------------------------------------------------

  /// Objective coefficient of edge `e` (also the weight tier of the final
  /// MST).  Must be finite and >= 0 for every valid PRR, and non-increasing
  /// in the link's PRR (pinned by tests/property_test.cpp).
  virtual double edge_cost(const wsn::Network& net, graph::EdgeId e) const = 0;

  /// The variant's objective value of a concrete tree (natural sign: a
  /// maximizing variant reports the quantity it maximizes).
  virtual double tree_objective(const wsn::Network& net,
                                const wsn::AggregationTree& tree) const = 0;

  // -- bounds -------------------------------------------------------------

  /// The bound the LP rows encode, derived from the user-facing bound
  /// (mrlc paper-strict tightens LC to L'; every other variant uses the
  /// requested bound directly).  May throw InfeasibleError.
  virtual double internal_bound(const wsn::Network& /*net*/,
                                double requested) const {
    return requested;
  }

  /// False when the variant has no per-vertex rows at all (min_energy):
  /// the engine then runs exactly one certified LP round before the MST.
  virtual bool constrained_at_start() const noexcept { return true; }

  /// Degree rows for the constrained set W at `internal_bound`.
  virtual DegreeBounds bounds(const wsn::Network& net,
                              const std::vector<bool>& constrained,
                              double internal_bound) const = 0;

  /// Line-8 test: may v's row be dropped given the surviving support?
  virtual bool row_removable(const wsn::Network& net,
                             const graph::Graph& working, graph::VertexId v,
                             double requested) const = 0;

  /// Slack ordering for the numerical fallback (largest slack drops first).
  virtual double removal_slack(const wsn::Network& net,
                               const graph::Graph& working, graph::VertexId v,
                               double requested) const = 0;

  // -- feasibility --------------------------------------------------------

  /// The metric of a tree that the user-facing bound constrains (plain
  /// Eq. 1 lifetime for mrlc/min_energy/max_lifetime, retransmission-aware
  /// lifetime for etx).
  virtual double bound_metric(const wsn::Network& net,
                              const wsn::AggregationTree& tree) const = 0;

  /// Feasibility predicate the returned tree is checked against.
  bool tree_feasible(const wsn::Network& net, const wsn::AggregationTree& tree,
                     double requested) const {
    return bound_metric(net, tree) >= requested * (1.0 - 1e-12);
  }

  // -- engine policy ------------------------------------------------------

  /// Whether the shared loop bumps the `ira.*` metrics and the per-variant
  /// solve counter.  The internal retx-mrlc adapter opts out to keep the
  /// historical `retx_aware_ira` metric documents unchanged.
  virtual bool emit_ira_metrics() const noexcept { return true; }

  /// Diagnostics (exact historical wording is part of the mrlc contract).
  virtual std::string infeasible_message(double requested,
                                         double internal) const = 0;
  virtual std::string interrupted_message(int outer_iterations,
                                          int lp_solves) const = 0;
  virtual const char* checkpoint_message() const noexcept = 0;
  virtual const char* disconnected_message() const noexcept = 0;
  virtual const char* lp_failed_message() const noexcept = 0;
};

/// Singleton accessor.  `kMrlc` resolves to the *direct* bound mode (the
/// mode every variant-facing surface uses); the paper-strict instance is
/// reachable via `mrlc_variant(BoundMode::kPaperStrict)`.
const ProblemVariant& problem_variant(VariantId id);

/// The mrlc variant with an explicit bound mode (kPaperStrict or kDirect).
const ProblemVariant& mrlc_variant(BoundMode mode);

/// Internal adapter used by `retx_aware_ira`: the mrlc objective (-ln q)
/// under the etx energy rows.  Not a first-class VariantId; it lets
/// `retx_aware_ira` keep its exact behaviour while sharing the engine.
const ProblemVariant& retx_mrlc_variant();

}  // namespace mrlc::core
