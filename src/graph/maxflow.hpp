#pragma once

/// \file maxflow.hpp
/// \brief Dinic maximum-flow on real-valued capacities, over flat CSR arcs.
///
/// Used by the subtour-elimination separation oracle (Padberg–Wolsey
/// construction) in `core/separation.hpp`.  Capacities are doubles; a small
/// epsilon treats near-zero residuals as saturated.
///
/// Storage: `add_arc` only appends to a flat list of pending arcs.  The
/// first operation that needs the network (`max_flow`, `reset`,
/// `set_arc_capacity`) lays every arc out once in compressed-sparse-row
/// form — node v's arcs are `arcs_[first_[v] .. first_[v+1])`, in the order
/// `add_arc` gave them (a reverse arc sits where its `add_arc` call put
/// it), and each arc names its reverse by global index.  Arcs added after
/// a layout are appended to their nodes' ranges by the next one.  The BFS
/// queue and the level/iterator arrays are sized with the network and
/// reused by every phase, so a solve allocates nothing.

#include <vector>

namespace mrlc::graph {

/// Max-flow network builder + Dinic solver.
class MaxFlow {
 public:
  /// \param node_count number of nodes (0-based ids).
  /// \param epsilon residual capacities below this count as zero.
  explicit MaxFlow(int node_count, double epsilon = 1e-9);

  /// Adds a directed arc with the given capacity (>= 0); returns its index
  /// among the arcs of `from` (forward and reverse entries, in add order).
  int add_arc(int from, int to, double capacity);

  /// Adds an undirected edge = two opposing arcs each with `capacity`.
  void add_undirected(int a, int b, double capacity);

  /// Computes the maximum flow from `source` to `sink` (destructive on
  /// residual capacities; call once per instance or use `reset`).
  double max_flow(int source, int sink);

  /// After max_flow: vertices on the source side of a minimum cut, in BFS
  /// order from `source`.
  std::vector<int> min_cut_source_side(int source) const;

  /// Restores all residual capacities to the original values.
  void reset();

  /// Reusable-network mode: replaces the capacity (and the value `reset`
  /// restores) of the `arc_index`-th arc added from `from`, without
  /// touching the accumulated flow elsewhere.  Call before `max_flow`,
  /// typically bracketed by `reset`; together they let one network serve a
  /// whole sweep of single-arc variations (e.g. the Padberg–Wolsey
  /// forced-vertex arcs) without rebuilding.
  void set_arc_capacity(int from, int arc_index, double capacity);

  /// Drops every arc (keeping allocations where possible) and resizes to
  /// `node_count` nodes, so the instance can host a fresh network.
  void reset_network(int node_count);

 private:
  struct Arc {
    int to;
    int rev;          ///< global index of the reverse arc in `arcs_`
    double capacity;  ///< residual capacity
  };
  /// One `add_arc` call not yet laid out.
  struct PendingArc {
    int from;
    int to;
    double capacity;
  };

  /// Folds `pending_` into the CSR arrays (no-op when nothing is pending).
  void layout();
  bool build_levels(int source, int sink);
  double push(int v, int sink, double limit);

  int node_count_;
  double epsilon_;
  std::vector<int> degree_;          ///< arcs per node, laid out + pending
  std::vector<PendingArc> pending_;  ///< add order; empty once laid out
  std::vector<int> first_;           ///< CSR offsets, node_count_ + 1
  std::vector<Arc> arcs_;
  std::vector<double> original_;  ///< per arc: the capacity `reset` restores
  std::vector<int> level_;
  std::vector<int> iter_;   ///< per node: next arc to try in this phase
  std::vector<int> queue_;  ///< BFS queue, one slot per node
};

}  // namespace mrlc::graph
