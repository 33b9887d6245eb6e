#pragma once

/// \file lp_formulation.hpp
/// \brief The LP(G, L', W) relaxation of the MRLC problem (Section IV-C).
///
///   min  sum_e c_e x_e
///   s.t. x_e >= 0                                   (12)
///        x(E(S)) <= |S| - 1       for all S ⊆ V     (13)  [row generation]
///        x(E(V))  = |V| - 1                         (14)
///        lifetime(v) >= L'        for all v in W    (15)
///
/// Constraint (15) is linear in disguise: the lifetime of v depends only on
/// its children count, and in any orientation away from the sink a non-sink
/// vertex has children = degree - 1 (the sink has children = degree), so
/// (15) becomes the degree row  x(δ(v)) <= cap(v, L').
///
/// The exponentially many subtour rows (13) are generated lazily: the
/// formulation starts with (12), (14), (15) and the x_e <= 1 bounds (the
/// S = {u, v} cases of (13)), then `SubtourLpSolver` alternates simplex
/// solves with the separation oracle until no violated subtour row remains.

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "lp/model.hpp"
#include "core/separation.hpp"
#include "lp/simplex.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {

/// A subtour-eliminated LP over the alive edges of a working graph.
///
/// Variables are indexed densely (0..alive_edges-1); `edge_of_variable`
/// maps back to graph edge ids.  The degree caps are supplied by the caller
/// (IRA computes them from L'; plain MST-as-LP passes no caps).
class MrlcLpFormulation {
 public:
  /// Per-(vertex, edge) coefficient of the degree rows.  The default
  /// (nullptr) is the paper's plain degree row (coefficient 1); the
  /// retransmission-aware extension passes energy rates like Tx/q_e so
  /// the row becomes a weighted energy budget.
  using RowWeight = std::function<double(graph::VertexId, graph::EdgeId)>;

  /// \param working     the (possibly edge-filtered) network topology; edge
  ///                    weights are the link costs.
  /// \param degree_caps for each vertex either a cap on the (weighted)
  ///                    incident sum or nullopt when the vertex is
  ///                    unconstrained (not in W).  With unit weights, caps
  ///                    at least |V|-1 are dropped as redundant.
  MrlcLpFormulation(const graph::Graph& working,
                    std::vector<std::optional<double>> degree_caps,
                    RowWeight row_weight = nullptr);

  lp::Model& model() noexcept { return model_; }
  const lp::Model& model() const noexcept { return model_; }

  int variable_count() const noexcept { return static_cast<int>(variables_.size()); }
  graph::EdgeId edge_of_variable(int var) const {
    MRLC_REQUIRE(var >= 0 && var < variable_count(), "variable out of range");
    return variables_[static_cast<std::size_t>(var)];
  }

  /// \brief Adds the subtour row x(E(S)) <= |S| - 1 for vertex set
  /// `subset` (2 <= |subset| < |V|, no duplicates).
  void add_subtour_row(const std::vector<graph::VertexId>& subset);

  /// \brief Expands an LP solution to per-edge values.
  /// \param variable_values  dense per-variable solution from the simplex.
  /// \return per-edge-id values (zero for dead edges), sized to the working
  ///         graph's edge count.
  std::vector<double> edge_values(const std::vector<double>& variable_values) const;

  const graph::Graph& working_graph() const noexcept { return working_; }

 private:
  const graph::Graph& working_;
  lp::Model model_;
  std::vector<graph::EdgeId> variables_;   ///< variable -> edge id
  std::vector<int> variable_of_edge_;      ///< edge id -> variable (-1 dead)
};

/// Result of a cutting-plane solve.
struct CutLpResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;
  /// True once at least one cut round reached a simplex optimum; then
  /// `objective` holds the optimum of the *last completed* round.  Every
  /// completed round solves a relaxation of the fully-cut LP, so on
  /// interruption that value is still a valid lower bound on it — this is
  /// what the anytime layer reports as the dual bound.
  bool has_objective = false;
  /// Per edge-id value of x (size = edge_count of the working graph).
  std::vector<double> edge_values;
  int cuts_added = 0;
  int lp_solves = 0;
  int simplex_iterations = 0;  ///< total pivots across all solves
  int warm_solves = 0;         ///< solves served by the dual-simplex restart
  int cold_fallbacks = 0;      ///< warm attempts abandoned for a cold solve
};

/// Knobs of the cutting-plane loop.
struct CutLoopOptions {
  lp::SimplexOptions simplex;
  /// Cutting-plane round budget.
  int max_rounds = 200;
  /// kHeuristicOnly skips the exact max-flow sweep — cheaper rounds but
  /// possibly-subtour-violating results (ablation knob).
  SeparationMode separation_mode = SeparationMode::kExact;
  /// Reoptimize after cut rounds with `lp::LpInstance::resolve` (dual
  /// simplex from the previous optimal basis) instead of a cold two-phase
  /// rebuild.  Identical results either way — warm starting changes the
  /// pivot path, never the optimum — so `false` exists for A/B tests and
  /// as a belt-and-braces escape hatch.
  bool warm_start = true;
  /// Optional cross-call cut memory (see `SubtourCutPool`); pass the same
  /// pool across the outer iterations of one IRA solve so sets discovered
  /// under earlier degree caps are rechecked for free later.
  SubtourCutPool* pool = nullptr;
  /// Optional cooperative budget (not owned).  Threaded into the simplex
  /// (one unit per pivot) and the separation sweep (one unit per max-flow);
  /// when it runs out the loop stops at the next deterministic checkpoint
  /// and reports `kInterrupted`.  Overrides `simplex.budget`.
  Budget* budget = nullptr;
};

/// \brief Alternates simplex solves with subtour separation until the
/// extreme point satisfies every subtour constraint (or infeasibility is
/// proven).  Round 0 solves cold; subsequent rounds append the violated
/// rows to the persistent `lp::LpInstance` and warm-start from the previous
/// basis (unless `warm_start` is off).
/// \param formulation  the LP; violated subtour rows are appended to it.
/// \param options  simplex options, round budget, separation/warm knobs.
/// \return status, objective, per-edge solution, and solve statistics.
CutLpResult solve_with_subtour_cuts(MrlcLpFormulation& formulation,
                                    const CutLoopOptions& options);

/// \brief Computes the degree caps encoding "lifetime(v) >= bound".
/// \param net  the network (supplies energies and the sink id).
/// \param constrained  per-vertex membership in W; unconstrained vertices
///        get nullopt entries.
/// \param bound  the lifetime bound the caps must guarantee.
/// \return per-vertex caps: cap(v) = max_children(v, bound) + 1 for
///         non-sink vertices, or max_children for the sink.
std::vector<std::optional<double>> lifetime_degree_caps(
    const wsn::Network& net, const std::vector<bool>& constrained, double bound);

}  // namespace mrlc::core
