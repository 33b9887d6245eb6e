#pragma once

/// \file branch_bound.hpp
/// \brief Exact MRLC by branch-and-bound — practical at the paper's scale.
///
/// `exact.hpp` enumerates every spanning tree, which dies around n = 10 on
/// dense graphs.  This solver searches over edges in cost order with three
/// prunes, which handles the 16-node DFL instance in well under a second
/// and therefore lets the benches report IRA's true optimality gap at the
/// paper's scale:
///
/// 1. **Cost bound** — partial cost + MST-of-contractible-remainder lower
///    bound must beat the incumbent.  The bound contracts already-joined
///    components (Kruskal on component ids), so it is exact when no degree
///    caps bind.
/// 2. **Degree caps** — children budgets implied by LC are enforced on the
///    partial solution (children of v <= floor(B(v, LC)) since any chosen
///    edge consumes degree).
/// 3. **Connectivity** — an edge whose skipping disconnects the remaining
///    graph is forced.
///
/// The search still has exponential worst cases (it is an NP-complete
/// problem); `max_nodes_explored` guards runaway instances.

#include <cstdint>
#include <optional>

#include "common/budget.hpp"
#include "core/exact.hpp"
#include "core/variant.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {

struct BranchBoundOptions {
  std::uint64_t max_nodes_explored = 50'000'000;
  /// Optional cooperative budget (not owned): charged with each wave's
  /// explored-node total at the serial wave merge, so the interruption
  /// point is identical for every thread count.  On exhaustion the search
  /// returns the incumbent with `complete = false` (or throws
  /// `BudgetExhaustedError` when no feasible tree was found yet).
  Budget* budget = nullptr;
};

struct BranchBoundResult {
  wsn::AggregationTree tree;
  double cost = 0.0;
  double reliability = 0.0;
  double lifetime = 0.0;
  /// The solved variant's objective of the tree (== `cost` for mrlc).
  double objective = 0.0;
  std::uint64_t nodes_explored = 0;
  /// True when the search ran to completion (the tree is provably optimal);
  /// false when a cooperative budget interrupted it and `tree` is only the
  /// best incumbent found so far.
  bool complete = true;
};

/// \brief Exact solve of a problem variant by branch-and-bound.
///
/// * `mrlc` returns the minimum-cost tree with lifetime >= `bound`: the
///   children caps are floored to integers and the degree-capped greedy
///   tree warm-starts the search.
/// * `etx` / `min_energy` search under the variant's edge costs with the
///   variant's (weighted) degree rows enforced on partial solutions; the
///   returned tree is provably optimal over the trees satisfying those
///   rows (for etx that is the *conservative* feasible set — the same set
///   the LP relaxation certifies against).
/// * `max_lifetime` binary-searches the discrete lifetime ladder with an
///   exact feasibility search per rung, so unlike the LP-probed
///   `core::solve` scan its answer is the true maximum lifetime.
/// \return the optimal tree (check `complete` when a cooperative budget is
///         attached) or nullopt when no spanning tree satisfies the
///         variant's rows at `bound` (never nullopt for min_energy on a
///         connected topology).
/// \throws std::invalid_argument when the search exceeds the node budget.
/// \throws BudgetExhaustedError when a cooperative budget runs out before
///         any feasible tree is found.
std::optional<BranchBoundResult> branch_bound_variant(
    VariantId id, const wsn::Network& net, double bound,
    const BranchBoundOptions& options = {});

}  // namespace mrlc::core
