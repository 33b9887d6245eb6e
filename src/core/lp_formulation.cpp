#include "core/lp_formulation.hpp"

#include <optional>
#include <string>
#include <vector>

#include "common/faultpoint.hpp"
#include "common/trace.hpp"
#include "core/separation.hpp"
#include "lp/instance.hpp"

namespace mrlc::core {

MrlcLpFormulation::MrlcLpFormulation(const graph::Graph& working,
                                     std::vector<std::optional<double>> degree_caps,
                                     RowWeight row_weight)
    : working_(working) {
  const int n = working.vertex_count();
  MRLC_REQUIRE(static_cast<int>(degree_caps.size()) == n,
               "one (optional) degree cap per vertex");

  variable_of_edge_.assign(static_cast<std::size_t>(working.edge_count()), -1);
  for (graph::EdgeId id : working.alive_edge_ids()) {
    const int var = model_.add_variable(working.edge(id).weight, 0.0, 1.0,
                                        "x_e" + std::to_string(id));
    variable_of_edge_[static_cast<std::size_t>(id)] = var;
    variables_.push_back(id);
  }

  // (14): x(E(V)) = |V| - 1.
  const lp::RowId total = model_.add_constraint(lp::Relation::kEqual,
                                                static_cast<double>(n - 1), "span");
  for (int var = 0; var < variable_count(); ++var) model_.add_term(total, var, 1.0);

  // (15) as (possibly weighted) degree rows: sum_e w(v,e) x_e <= cap(v).
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto& cap = degree_caps[static_cast<std::size_t>(v)];
    if (!cap.has_value()) continue;
    // With unit weights a cap of n-1 can never bind; weighted rows have no
    // such shortcut.
    if (!row_weight && *cap >= static_cast<double>(n - 1)) continue;
    const lp::RowId row = model_.add_constraint(lp::Relation::kLessEqual, *cap,
                                                "deg_v" + std::to_string(v));
    for (graph::EdgeId id : working.incident(v)) {
      const int var = variable_of_edge_[static_cast<std::size_t>(id)];
      MRLC_ENSURE(var != -1, "incident edge of an alive vertex must be alive");
      model_.add_term(row, var, row_weight ? row_weight(v, id) : 1.0);
    }
  }
}

void MrlcLpFormulation::add_subtour_row(const std::vector<graph::VertexId>& subset) {
  MRLC_REQUIRE(subset.size() >= 2, "subtour rows need |S| >= 2");
  std::vector<bool> in_set(static_cast<std::size_t>(working_.vertex_count()), false);
  for (graph::VertexId v : subset) {
    MRLC_REQUIRE(v >= 0 && v < working_.vertex_count(), "subset vertex out of range");
    MRLC_REQUIRE(!in_set[static_cast<std::size_t>(v)], "subset has duplicates");
    in_set[static_cast<std::size_t>(v)] = true;
  }
  const lp::RowId row = model_.add_constraint(
      lp::Relation::kLessEqual, static_cast<double>(subset.size()) - 1.0, "subtour");
  for (int var = 0; var < variable_count(); ++var) {
    const graph::Edge& e = working_.edge(variables_[static_cast<std::size_t>(var)]);
    if (in_set[static_cast<std::size_t>(e.u)] && in_set[static_cast<std::size_t>(e.v)]) {
      model_.add_term(row, var, 1.0);
    }
  }
}

std::vector<double> MrlcLpFormulation::edge_values(
    const std::vector<double>& variable_values) const {
  MRLC_REQUIRE(static_cast<int>(variable_values.size()) == variable_count(),
               "value vector has wrong dimension");
  std::vector<double> out(static_cast<std::size_t>(working_.edge_count()), 0.0);
  for (int var = 0; var < variable_count(); ++var) {
    out[static_cast<std::size_t>(variables_[static_cast<std::size_t>(var)])] =
        variable_values[static_cast<std::size_t>(var)];
  }
  return out;
}

CutLpResult solve_with_subtour_cuts(MrlcLpFormulation& formulation,
                                    const CutLoopOptions& options) {
  MRLC_REQUIRE(options.max_rounds >= 1, "need at least one round");
  trace::ScopedPhase phase("cut_lp");
  CutLpResult out;
  lp::SimplexOptions simplex = options.simplex;
  if (options.budget != nullptr) simplex.budget = options.budget;
  std::optional<lp::LpInstance> instance;
  instance.emplace(formulation.model(), simplex);
  auto finish = [&]() {
    out.warm_solves = static_cast<int>(instance->warm_solves());
    out.cold_fallbacks = static_cast<int>(instance->cold_fallbacks());
    return out;
  };

  // The solve trajectory so far: for every LP solved, the model row count
  // it saw and whether it went through the warm path.  This is the recovery
  // script for the basis fault points: the MRLC degree/cut LPs are heavily
  // degenerate, so a cold re-solve over the full model may legally land on
  // a *different* optimal vertex and steer the remaining cut rounds toward
  // a different (equally optimal) tree.  Replaying the recorded trajectory
  // on a fresh instance instead reconstructs the exact basis that was
  // lost, so a recovered run is guaranteed to finish with the same tree as
  // a clean one.
  struct Step {
    int rows;   ///< model rows visible to this solve
    bool warm;  ///< went through sync_new_rows + resolve
  };
  std::vector<Step> trajectory;
  const auto replay_trajectory = [&]() {
    instance.emplace(formulation.model(), trajectory.front().rows, simplex);
    lp::SolveStatus status = lp::SolveStatus::kOptimal;
    for (const Step& step : trajectory) {
      instance->sync_new_rows(step.rows);
      const lp::Solution s = (step.warm && instance->has_basis())
                                 ? instance->resolve()
                                 : instance->solve();
      status = s.status;
      if (status != lp::SolveStatus::kOptimal) break;
    }
    return status;
  };

  for (int round = 0; round < options.max_rounds; ++round) {
    // Deterministic checkpoint: a budget that ran out inside the previous
    // round's separation sweep stops the loop here, before the next solve.
    if (options.budget != nullptr && options.budget->exhausted()) {
      out.status = lp::SolveStatus::kInterrupted;
      return finish();
    }
    lp::Solution sol;
    if (options.warm_start && instance->has_basis()) {
      // Fault points: the retained basis is lost between rounds
      // (`lp.drop_basis`), or the warm reoptimization must be abandoned
      // before its first pivot (`lp.force_cold`).  Both recover by
      // deterministic replay (see `trajectory` above); the recovery is
      // audited only after the replay actually restored an optimal basis.
      const bool dropped = fault::fire("lp.drop_basis");
      const bool forced = fault::fire("lp.force_cold");
      if (dropped || forced) {
        const lp::SolveStatus replayed = replay_trajectory();
        if (replayed != lp::SolveStatus::kOptimal) {
          // Only a budget interrupt can stop a replay of previously optimal
          // solves; surface it like any other interrupted round.
          out.status = replayed;
          return finish();
        }
        if (dropped) fault::note_recovered("lp.drop_basis");
        if (forced) fault::note_recovered("lp.force_cold");
      }
      instance->sync_new_rows();
      sol = instance->resolve();
      trajectory.push_back({formulation.model().constraint_count(), true});
    } else {
      // Round 0, warm starting disabled, or the basis was invalidated: the
      // cold path reads the full model, so nothing can be out of sync.
      sol = instance->solve();
      trajectory.push_back({formulation.model().constraint_count(), false});
    }
    ++out.lp_solves;
    out.simplex_iterations += sol.iterations;
    out.status = sol.status;
    if (sol.status != lp::SolveStatus::kOptimal) return finish();

    out.objective = sol.objective;
    out.has_objective = true;
    out.edge_values = formulation.edge_values(sol.values);

    const auto violated = find_violated_subtours(
        formulation.working_graph(), out.edge_values, 1e-6,
        options.separation_mode, options.pool, options.budget);
    if (violated.empty()) {
      // An empty sweep normally certifies "no violated subtour"; under an
      // exhausted budget it may merely mean the sweep was cut short, so the
      // optimum cannot be trusted as fully separated.
      if (options.budget != nullptr && options.budget->exhausted()) {
        out.status = lp::SolveStatus::kInterrupted;
      }
      return finish();
    }
    for (const auto& subset : violated) {
      formulation.add_subtour_row(subset);
      ++out.cuts_added;
    }
  }
  // Separation did not converge within the round budget — report as an
  // iteration limit so the caller can distinguish it from infeasibility.
  out.status = lp::SolveStatus::kIterationLimit;
  return finish();
}

std::vector<std::optional<double>> lifetime_degree_caps(
    const wsn::Network& net, const std::vector<bool>& constrained, double bound) {
  MRLC_REQUIRE(static_cast<int>(constrained.size()) == net.node_count(),
               "one flag per node");
  MRLC_REQUIRE(bound > 0.0, "lifetime bound must be positive");
  std::vector<std::optional<double>> caps(static_cast<std::size_t>(net.node_count()));
  for (graph::VertexId v = 0; v < net.node_count(); ++v) {
    if (!constrained[static_cast<std::size_t>(v)]) continue;
    const double children = net.max_children_real(v, bound);
    const double cap = v == net.sink() ? children : children + 1.0;
    caps[static_cast<std::size_t>(v)] = cap;
  }
  return caps;
}

}  // namespace mrlc::core
