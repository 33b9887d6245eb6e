#include "core/branch_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/greedy_mrlc.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "graph/dsu.hpp"
#include "graph/mst.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {

namespace {

/// Slack added to the (weighted) row checks.  Unit rows compare exact
/// small integers, where the slack is inert; weighted energy rows need it
/// to absorb the add/subtract drift of backtracking.
constexpr double kRowTol = 1e-12;

/// One search instance: the variant's edge costs (indexed by edge id) plus
/// its per-vertex rows (cap = +inf when unconstrained, `row_weight` null
/// for the paper's unit degree rows) and an optional incumbent seed.
struct BbProblem {
  std::vector<double> edge_cost;
  std::vector<double> cap;
  MrlcLpFormulation::RowWeight row_weight;
  double warm_cost = std::numeric_limits<double>::infinity();
  std::vector<graph::EdgeId> warm_edges;
};

/// A suspended subtree of the search: everything needed to resume the DFS
/// at `index` with the partial tree `chosen` already committed.
struct FrontierState {
  std::size_t index;
  double cost;
  graph::DisjointSetUnion dsu;
  std::vector<graph::EdgeId> chosen;
};

struct Searcher {
  const wsn::Network& net;
  const BbProblem& problem;
  const std::vector<graph::EdgeId>& sorted;  // edges by ascending cost
  std::uint64_t budget;                      // max nodes this searcher explores

  std::uint64_t explored = 0;
  std::uint64_t pruned = 0;
  std::uint64_t incumbent_updates = 0;
  bool budget_exceeded = false;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<graph::EdgeId> best_edges;
  std::vector<graph::EdgeId> current;
  std::vector<double> load;  // per-vertex committed row load

  // Split mode: when set, nodes at index >= split_index are suspended onto
  // the frontier (uncounted — the resuming searcher counts them) instead of
  // being expanded.
  std::vector<FrontierState>* frontier = nullptr;
  std::size_t split_index = 0;

  Searcher(const wsn::Network& network, const BbProblem& bb_problem,
           const std::vector<graph::EdgeId>& edges, std::uint64_t node_budget)
      : net(network),
        problem(bb_problem),
        sorted(edges),
        budget(node_budget),
        load(static_cast<std::size_t>(network.node_count()), 0.0) {}

  double edge_load(graph::VertexId v, graph::EdgeId e) const {
    return problem.row_weight ? problem.row_weight(v, e) : 1.0;
  }

  void commit(graph::EdgeId id) {
    const graph::Edge& e = net.topology().edge(id);
    load[static_cast<std::size_t>(e.u)] += edge_load(e.u, id);
    load[static_cast<std::size_t>(e.v)] += edge_load(e.v, id);
  }

  /// Kruskal over edges[index..] on the contracted components: an exact
  /// lower bound on the cost still needed to connect everything (ignores
  /// the degree rows, so it never over-prunes).
  double completion_lower_bound(std::size_t index, graph::DisjointSetUnion dsu) {
    double bound = 0.0;
    int remaining = dsu.set_count() - 1;
    for (std::size_t i = index; i < sorted.size() && remaining > 0; ++i) {
      const graph::Edge& e = net.topology().edge(sorted[i]);
      if (dsu.unite(e.u, e.v)) {
        bound += problem.edge_cost[static_cast<std::size_t>(sorted[i])];
        --remaining;
      }
    }
    return remaining == 0 ? bound : std::numeric_limits<double>::infinity();
  }

  void recurse(std::size_t index, double cost, const graph::DisjointSetUnion& dsu) {
    if (budget_exceeded) return;
    if (frontier != nullptr && index >= split_index) {
      frontier->push_back({index, cost, dsu, current});
      return;
    }
    if (++explored > budget) {
      budget_exceeded = true;
      return;
    }
    if (dsu.set_count() == 1) {
      if (cost < best_cost) {
        best_cost = cost;
        best_edges = current;
        ++incumbent_updates;
      }
      return;
    }
    if (index >= sorted.size()) return;
    if (cost + completion_lower_bound(index, dsu) >= best_cost - 1e-12) {
      ++pruned;
      return;
    }

    const graph::EdgeId id = sorted[index];
    const graph::Edge& e = net.topology().edge(id);

    // Branch 1: take the edge (cheapest-first gives strong incumbents).
    const double wu = edge_load(e.u, id);
    const double wv = edge_load(e.v, id);
    graph::DisjointSetUnion with_edge = dsu;
    if (with_edge.unite(e.u, e.v) &&
        load[static_cast<std::size_t>(e.u)] + wu <=
            problem.cap[static_cast<std::size_t>(e.u)] + kRowTol &&
        load[static_cast<std::size_t>(e.v)] + wv <=
            problem.cap[static_cast<std::size_t>(e.v)] + kRowTol) {
      current.push_back(id);
      load[static_cast<std::size_t>(e.u)] += wu;
      load[static_cast<std::size_t>(e.v)] += wv;
      recurse(index + 1,
              cost + problem.edge_cost[static_cast<std::size_t>(id)],
              with_edge);
      load[static_cast<std::size_t>(e.u)] -= wu;
      load[static_cast<std::size_t>(e.v)] -= wv;
      current.pop_back();
    }
    // Branch 2: skip the edge.
    recurse(index + 1, cost, dsu);
  }
};

/// Depth at which the serial pass suspends subtrees onto the frontier.
/// Two branches per level gives at most 2^6 = 64 subproblems — enough to
/// keep a pool busy, small enough that the serial prefix is negligible.
constexpr std::size_t kSplitDepth = 6;

/// Frontier states are searched in waves of this constant size: every
/// searcher in a wave starts from the incumbent as of the wave boundary and
/// the results are merged in frontier order.  Because the wave width does
/// not depend on the pool width, the nodes expanded, prunes, incumbent
/// updates, and the winning tree are identical for every thread count (the
/// price is incumbents propagating one wave late compared to a serial DFS).
constexpr std::size_t kWave = 8;

struct SearchOutcome {
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<graph::EdgeId> best_edges;
  std::uint64_t explored = 0;
  bool budget_exceeded = false;
  bool interrupted = false;
};

/// The shared split/wave search: serial prefix to kSplitDepth, then
/// deterministic waves on the thread pool (see kWave).
SearchOutcome run_search(const wsn::Network& net, const BbProblem& problem,
                         const BranchBoundOptions& options) {
  std::vector<graph::EdgeId> sorted = net.topology().alive_edge_ids();
  std::sort(sorted.begin(), sorted.end(), [&](graph::EdgeId a, graph::EdgeId b) {
    return problem.edge_cost[static_cast<std::size_t>(a)] <
           problem.edge_cost[static_cast<std::size_t>(b)];
  });

  const int n = net.node_count();
  Searcher root(net, problem, sorted, options.max_nodes_explored);
  if (!problem.warm_edges.empty()) {
    root.best_cost = problem.warm_cost + 1e-12;
    root.best_edges = problem.warm_edges;
  }

  std::vector<FrontierState> frontier;
  root.frontier = &frontier;
  root.split_index = kSplitDepth;
  root.recurse(0, 0.0, graph::DisjointSetUnion(n));
  root.frontier = nullptr;

  std::uint64_t explored_total = root.explored;
  std::uint64_t pruned_total = root.pruned;
  std::uint64_t incumbent_total = root.incumbent_updates;
  bool budget_exceeded = root.budget_exceeded;
  double best_cost = root.best_cost;
  std::vector<graph::EdgeId> best_edges = root.best_edges;

  // Cooperative-budget charges happen only at serial points (end of the
  // serial phase 1, then each wave merge), so exhaustion interrupts the
  // search at the same wave boundary for every thread count.
  bool interrupted = false;
  if (options.budget != nullptr &&
      !options.budget->charge(static_cast<std::int64_t>(root.explored))) {
    interrupted = true;
  }

  for (std::size_t start = 0;
       start < frontier.size() && !budget_exceeded && !interrupted;
       start += kWave) {
    const std::size_t end = std::min(start + kWave, frontier.size());
    const std::uint64_t remaining =
        options.max_nodes_explored > explored_total
            ? options.max_nodes_explored - explored_total
            : 0;
    if (remaining == 0) {
      budget_exceeded = true;
      break;
    }
    const int wave_size = static_cast<int>(end - start);
    std::vector<Searcher> wave;
    wave.reserve(static_cast<std::size_t>(wave_size));
    for (int i = 0; i < wave_size; ++i) {
      wave.emplace_back(net, problem, sorted, remaining);
      wave.back().best_cost = best_cost;
    }
    default_pool().for_each(wave_size, [&](int i) {
      Searcher& s = wave[static_cast<std::size_t>(i)];
      const FrontierState& state = frontier[start + static_cast<std::size_t>(i)];
      s.current = state.chosen;
      for (graph::EdgeId id : state.chosen) {
        s.commit(id);
      }
      s.recurse(state.index, state.cost, state.dsu);
    });
    std::uint64_t wave_explored = 0;
    for (const Searcher& s : wave) {
      explored_total += s.explored;
      wave_explored += s.explored;
      pruned_total += s.pruned;
      incumbent_total += s.incumbent_updates;
      if (s.budget_exceeded) budget_exceeded = true;
      if (s.best_cost < best_cost) {
        best_cost = s.best_cost;
        best_edges = s.best_edges;
      }
    }
    if (explored_total > options.max_nodes_explored) budget_exceeded = true;
    if (options.budget != nullptr &&
        !options.budget->charge(static_cast<std::int64_t>(wave_explored))) {
      interrupted = true;
    }
  }

  static metrics::Counter& expanded =
      metrics::counter("branch_bound.nodes_expanded");
  static metrics::Counter& pruned = metrics::counter("branch_bound.nodes_pruned");
  static metrics::Counter& incumbents =
      metrics::counter("branch_bound.incumbent_updates");
  expanded.add(static_cast<long long>(explored_total));
  pruned.add(static_cast<long long>(pruned_total));
  incumbents.add(static_cast<long long>(incumbent_total));

  if (interrupted && best_edges.empty()) {
    throw BudgetExhaustedError(
        "budget exhausted before branch-and-bound found any tree meeting the "
        "lifetime bound");
  }
  if (!interrupted) {
    MRLC_REQUIRE(!budget_exceeded,
                 "branch-and-bound exceeded its node budget on this instance");
  }

  SearchOutcome out;
  out.best_cost = best_cost;
  out.best_edges = std::move(best_edges);
  out.explored = explored_total;
  out.budget_exceeded = budget_exceeded;
  out.interrupted = interrupted;
  return out;
}

BranchBoundResult finish_result(const wsn::Network& net,
                                const SearchOutcome& outcome) {
  BranchBoundResult out;
  out.tree = wsn::AggregationTree::from_edges(net, outcome.best_edges);
  out.cost = wsn::tree_cost(net, out.tree);
  out.reliability = wsn::tree_reliability(net, out.tree);
  out.lifetime = wsn::network_lifetime(net, out.tree);
  out.objective = out.cost;
  out.nodes_explored = outcome.explored;
  out.complete = !outcome.interrupted;
  return out;
}

/// The variant's edge costs over the full topology, indexed by edge id.
std::vector<double> variant_edge_costs(const ProblemVariant& variant,
                                       const wsn::Network& net) {
  std::vector<double> cost(
      static_cast<std::size_t>(net.topology().edge_count()), 0.0);
  for (graph::EdgeId id : net.topology().alive_edge_ids()) {
    cost[static_cast<std::size_t>(id)] = variant.edge_cost(net, id);
  }
  return cost;
}

/// MST under the variant's edge costs, as an incumbent seed when it
/// satisfies the variant's rows (it is the unconstrained cost optimum, so
/// when it fits, the search only has to certify it).
void seed_variant_mst(const wsn::Network& net, BbProblem& problem) {
  graph::Graph reweighted = net.topology();
  for (graph::EdgeId id : reweighted.alive_edge_ids()) {
    reweighted.set_weight(id,
                          problem.edge_cost[static_cast<std::size_t>(id)]);
  }
  const auto mst = graph::prim_mst(reweighted, net.sink());
  if (!mst.has_value()) return;
  std::vector<double> load(static_cast<std::size_t>(net.node_count()), 0.0);
  double cost = 0.0;
  for (graph::EdgeId id : mst->edges) {
    const graph::Edge& e = net.topology().edge(id);
    load[static_cast<std::size_t>(e.u)] +=
        problem.row_weight ? problem.row_weight(e.u, id) : 1.0;
    load[static_cast<std::size_t>(e.v)] +=
        problem.row_weight ? problem.row_weight(e.v, id) : 1.0;
    cost += problem.edge_cost[static_cast<std::size_t>(id)];
  }
  for (graph::VertexId v = 0; v < net.node_count(); ++v) {
    if (load[static_cast<std::size_t>(v)] >
        problem.cap[static_cast<std::size_t>(v)] + kRowTol) {
      return;  // the MST violates a row; search without a seed
    }
  }
  problem.warm_cost = cost;
  problem.warm_edges = mst->edges;
}

/// mrlc: children caps floored to integers at LC, searched under the
/// native -ln q weights with the degree-capped greedy tree as the warm
/// start.  Returns nullopt when no spanning tree satisfies the caps.
std::optional<BranchBoundResult> search_mrlc(
    const wsn::Network& net, double lifetime_bound,
    const BranchBoundOptions& options) {
  trace::ScopedPhase phase("branch_bound");
  net.validate();
  MRLC_REQUIRE(lifetime_bound > 0.0, "lifetime bound must be positive");

  const int n = net.node_count();
  BbProblem problem;
  problem.cap.resize(static_cast<std::size_t>(n));
  for (wsn::VertexId v = 0; v < n; ++v) {
    const double children = net.max_children_real(v, lifetime_bound);
    const double degree = v == net.sink() ? children : children + 1.0;
    const int cap = static_cast<int>(std::floor(degree + 1e-9));
    if (cap < 1) return std::nullopt;  // v cannot even attach to the tree
    problem.cap[static_cast<std::size_t>(v)] = static_cast<double>(cap);
  }
  problem.edge_cost.resize(
      static_cast<std::size_t>(net.topology().edge_count()), 0.0);
  for (graph::EdgeId id : net.topology().alive_edge_ids()) {
    problem.edge_cost[static_cast<std::size_t>(id)] =
        net.topology().edge(id).weight;
  }

  // Warm start: the degree-capped greedy tree, when it meets the bound,
  // seeds a finite incumbent and massively improves pruning.
  try {
    const baselines::GreedyMrlcResult greedy = baselines::greedy_mrlc(net, lifetime_bound);
    if (greedy.meets_bound) {
      problem.warm_cost = wsn::tree_cost(net, greedy.tree);
      problem.warm_edges = greedy.tree.edge_ids();
    }
  } catch (const InfeasibleError&) {
    // greedy stuck; search without a warm start
  }

  const SearchOutcome outcome = run_search(net, problem, options);
  if (outcome.best_edges.empty()) return std::nullopt;

  BranchBoundResult out = finish_result(net, outcome);
  MRLC_ENSURE(out.lifetime >= lifetime_bound * (1.0 - 1e-9),
              "branch-and-bound produced a tree violating the bound");
  return out;
}

/// max_lifetime: exact binary search over the discrete lifetime ladder —
/// a rung is reachable iff the (exact) mrlc search at that bound finds any
/// tree, so unlike the LP-probed scan this answer is the true maximum.
std::optional<BranchBoundResult> branch_bound_max_lifetime(
    const wsn::Network& net, double floor_bound,
    const BranchBoundOptions& options) {
  const std::vector<double> ladder = lifetime_candidates(net);
  std::uint64_t explored = 0;
  bool complete = true;
  std::optional<BranchBoundResult> best;
  // Invariants: rungs >= hi are unreachable; `best` holds the result at
  // the highest rung known reachable (if any).
  std::size_t lo = 0;
  std::size_t hi = ladder.size();
  auto probe = [&](std::size_t i) {
    std::optional<BranchBoundResult> res =
        search_mrlc(net, ladder[i], options);
    if (res.has_value()) {
      explored += res->nodes_explored;
      complete = complete && res->complete;
    }
    return res;
  };
  std::optional<BranchBoundResult> at_lo = probe(0);
  if (!at_lo.has_value()) return std::nullopt;  // disconnected
  best = std::move(at_lo);
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::optional<BranchBoundResult> res = probe(mid);
    if (res.has_value()) {
      lo = mid;
      best = std::move(res);
    } else {
      hi = mid;
    }
  }
  best->objective = best->lifetime;
  best->nodes_explored = explored;
  best->complete = complete;
  if (best->lifetime < floor_bound * (1.0 - 1e-12)) return std::nullopt;
  return best;
}

}  // namespace

std::optional<BranchBoundResult> branch_bound_variant(
    VariantId id, const wsn::Network& net, double bound,
    const BranchBoundOptions& options) {
  if (id == VariantId::kMrlc) {
    return search_mrlc(net, bound, options);
  }
  if (id == VariantId::kMaxLifetime) {
    return branch_bound_max_lifetime(net, bound, options);
  }

  trace::ScopedPhase phase("branch_bound");
  net.validate();
  MRLC_REQUIRE(bound > 0.0, "lifetime bound must be positive");
  const ProblemVariant& variant = problem_variant(id);

  const int n = net.node_count();
  BbProblem problem;
  problem.edge_cost = variant_edge_costs(variant, net);
  DegreeBounds rows = variant.bounds(
      net, std::vector<bool>(static_cast<std::size_t>(n), true),
      variant.internal_bound(net, bound));
  problem.cap.resize(static_cast<std::size_t>(n),
                     std::numeric_limits<double>::infinity());
  for (graph::VertexId v = 0; v < n; ++v) {
    if (rows.caps[static_cast<std::size_t>(v)].has_value()) {
      problem.cap[static_cast<std::size_t>(v)] =
          *rows.caps[static_cast<std::size_t>(v)];
    }
  }
  problem.row_weight = std::move(rows.row_weight);
  seed_variant_mst(net, problem);

  const SearchOutcome outcome = run_search(net, problem, options);
  if (outcome.best_edges.empty()) return std::nullopt;

  BranchBoundResult out = finish_result(net, outcome);
  out.objective = variant.tree_objective(net, out.tree);
  MRLC_ENSURE(id == VariantId::kMinEnergy ||
                  variant.tree_feasible(net, out.tree, bound * (1.0 - 1e-9)),
              "branch-and-bound produced a tree violating the variant bound");
  return out;
}

}  // namespace mrlc::core
