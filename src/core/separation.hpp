#pragma once

/// \file separation.hpp
/// \brief Separation oracle for the subtour constraints x(E(S)) <= |S| - 1.
///
/// Theorem 1 (Grötschel–Lovász–Schrijver) reduces optimizing over the
/// subtour polytope to a polynomial separation oracle; the paper cites the
/// min-cut based oracle of [12].  We implement it in two stages:
///
/// 1. A cheap heuristic: connected components of the fractional support —
///    if a proper component S already carries more than |S| - 1 total
///    weight, its subtour row is violated (this catches the common case of
///    a fractional cycle split off from the rest).
/// 2. The exact Padberg–Wolsey reduction.  Using
///    x(E(S)) = 1/2 (sum_{v in S} x(δ(v)) - x(δ(S))),
///    the row for S is violated iff
///    f(S) = x(δ(S)) - sum_{v in S} (x(δ(v)) - 2)  <  2.
///    Minimizing f over all S with a fixed vertex u inside and r outside is
///    a minimum s-t cut on an auxiliary network (node weights hung off the
///    source/sink, edge capacities x_e); sweeping u over V \ {r} in both
///    orientations covers every nonempty proper S.

#include <set>
#include <vector>

#include "common/budget.hpp"
#include "graph/graph.hpp"

namespace mrlc::core {

/// Which machinery the oracle may use.  `kExact` (default) runs the cheap
/// component heuristic first and falls through to the Padberg–Wolsey
/// max-flow sweep, so "no violation found" is a proof.  `kHeuristicOnly`
/// skips the flow sweep — much cheaper per call, but it can miss violated
/// sets, so a cutting-plane loop driven by it may terminate on a point
/// outside the subtour polytope (measured in bench/micro_ablations.cpp).
enum class SeparationMode { kExact, kHeuristicOnly };

/// Memory of previously violated vertex sets, shared across separation
/// calls (cut rounds, and outer IRA iterations, which rebuild the LP and
/// thereby discard the rows themselves).  Before paying for a max-flow
/// sweep the oracle rechecks pooled sets with a cheap O(|supp|) sum over
/// the point's support (edges with x_e != 0) — sets that cut off one
/// fractional point often cut off the next (counted in
/// `separation.pool_hits`) — and uses pool statistics to order the
/// sweep so that historically "hot" vertices are probed first, which makes
/// the early exit fire sooner.  Vertex ids must stay stable for the pool's
/// lifetime (IRA only removes edges, never vertices).
class SubtourCutPool {
 public:
  /// Records a violated set (any order; stored sorted, deduplicated).
  /// When a capacity is set and the pool is full, the oldest remembered
  /// set is evicted first (FIFO) so long-lived pools — the solver
  /// service keeps one per cached topology — stay bounded in both memory
  /// and per-recheck cost.
  void remember(const std::vector<graph::VertexId>& subset);

  /// Bounds the pool at `max_sets` remembered sets (0 = unbounded, the
  /// default).  Shrinking below the current size evicts oldest-first
  /// immediately.
  void set_capacity(std::size_t max_sets);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Pooled sets in first-remembered order (each sorted).
  const std::vector<std::vector<graph::VertexId>>& sets() const noexcept {
    return sets_;
  }
  std::size_t size() const noexcept { return sets_.size(); }

  /// Sweep-order hint: all of 0..vertex_count-1, sorted by how often each
  /// vertex appeared in remembered sets (descending; ties by id, so an
  /// empty pool yields the identity order).
  std::vector<graph::VertexId> hot_vertices(int vertex_count) const;

 private:
  void evict_to_capacity();

  std::set<std::vector<graph::VertexId>> seen_;
  std::vector<std::vector<graph::VertexId>> sets_;
  std::vector<long long> appearances_;  ///< per vertex id, grown on demand
  std::size_t capacity_ = 0;            ///< 0 = unbounded
};

/// \brief Finds vertex sets whose subtour rows are violated by the given
/// fractional point.
/// \param g  the working graph (dead edges allowed).
/// \param edge_values  x_e per edge id; dead edges must carry 0.
/// \param tolerance  violation slack below which a row counts as satisfied.
/// \param mode  kExact proves "no violation"; kHeuristicOnly is cheap but
///        incomplete.
/// \return at most a handful of the most useful violated sets per call
///         (deduplicated, each sorted); empty means x satisfies every
///         subtour constraint within `tolerance` (only under kExact).
/// \param pool  optional cross-call memory: pooled sets are rechecked
///        before any max-flow runs, the sweep order follows the pool's hot
///        vertices, and newly found sets are remembered.  Pass nullptr for
///        the stateless oracle.
/// \param budget  optional cooperative budget (not owned): one unit per
///        max-flow, charged at the serial batch merge so the charge points
///        are thread-count independent.  An exhausted budget stops the
///        sweep at the next batch boundary and returns whatever was found
///        so far — an empty result then does NOT certify separation.
std::vector<std::vector<graph::VertexId>> find_violated_subtours(
    const graph::Graph& g, const std::vector<double>& edge_values,
    double tolerance = 1e-6, SeparationMode mode = SeparationMode::kExact,
    SubtourCutPool* pool = nullptr, Budget* budget = nullptr);

/// One Padberg–Wolsey minimizer result: the minimizing subset and its
/// objective value f(S) (violated iff f < 2).
struct SeparationCut {
  std::vector<graph::VertexId> subset;  ///< the minimizing S, sorted
  double f_value = 0.0;                 ///< min f(S); subtour violated iff < 2
};

/// \brief Exact minimizer of f(S) (see file comment) over all S containing
/// `forced_in` and excluding `forced_out`.  Exposed for tests.
/// \param g  the working graph.
/// \param edge_values  x_e per edge id (one entry per edge, dead edges 0).
/// \param forced_in  vertex that must be inside S.
/// \param forced_out  vertex that must be outside S (!= forced_in).
/// \return the minimizing subset and its f value (one max-flow solve).
SeparationCut min_subtour_cut(const graph::Graph& g,
                              const std::vector<double>& edge_values,
                              graph::VertexId forced_in, graph::VertexId forced_out);

/// \brief Exact minimizer of f(S) over *all* S containing `forced_in`
/// (no excluded vertex; S = V is a candidate).  Because
/// f(S) = 2(|S| - x(E(S))), a point on the span hyperplane
/// x(E(V)) = |V| - 1 has f(V) = 2 exactly, so whenever any proper subset
/// violates its subtour row the minimum here drops below 2 and the
/// minimizer is proper — one max-flow per swept vertex instead of the two
/// per (vertex, orientation) pair of the classic sweep.  Exactness of a
/// "nothing below 2" verdict requires x(E(V)) >= |V| - 1 (callers inside
/// the cut loop always have the span row; `find_violated_subtours` checks
/// and falls back to the two-orientation sweep otherwise).
SeparationCut min_subtour_cut_containing(const graph::Graph& g,
                                         const std::vector<double>& edge_values,
                                         graph::VertexId forced_in);

/// \brief x(E(S)): total edge value internal to a vertex subset.
/// \param g  the graph; \param edge_values  x_e per edge id;
/// \param subset  the vertex set S (no duplicates).
/// \return sum of `edge_values` over alive edges with both ends in S, in
///         edge-id order (bit for bit; the oracle's set checks use the
///         same code).
double subset_internal_weight(const graph::Graph& g,
                              const std::vector<double>& edge_values,
                              const std::vector<graph::VertexId>& subset);

}  // namespace mrlc::core
