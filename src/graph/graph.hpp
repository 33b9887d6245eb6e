#pragma once

/// \file graph.hpp
/// \brief Undirected weighted graph with stable edge identifiers.
///
/// Vertices are dense integers `0 .. vertex_count()-1`.  Edges carry a
/// double weight (the MRLC modules store the link *cost* `-log q_e` there)
/// and keep the identifier they were added with, so algorithm outputs
/// (MST edge sets, LP variables, tree edge sets) can refer to edges by index
/// across graph copies and after `remove_edge`.

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace mrlc::graph {

using VertexId = int;
using EdgeId = int;

/// An undirected edge.  `u < v` is NOT required; both orders are accepted
/// and preserved as given.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0.0;

  /// The endpoint that is not `from`.  Requires `from` to be an endpoint.
  VertexId other(VertexId from) const {
    MRLC_REQUIRE(from == u || from == v, "vertex is not an endpoint of this edge");
    return from == u ? v : u;
  }
};

/// Undirected weighted multigraph (parallel edges allowed, self-loops not).
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `vertex_count` isolated vertices.
  explicit Graph(int vertex_count);

  int vertex_count() const noexcept { return vertex_count_; }
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }

  /// Adds an undirected edge and returns its id.  Rejects self-loops and
  /// out-of-range endpoints.
  EdgeId add_edge(VertexId u, VertexId v, double weight);

  const Edge& edge(EdgeId id) const {
    MRLC_REQUIRE(id >= 0 && id < edge_count(), "edge id out of range");
    return edges_[static_cast<std::size_t>(id)];
  }

  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Edge ids incident to `v`.
  std::span<const EdgeId> incident(VertexId v) const {
    MRLC_REQUIRE(v >= 0 && v < vertex_count_, "vertex out of range");
    return incident_[static_cast<std::size_t>(v)];
  }

  int degree(VertexId v) const { return static_cast<int>(incident(v).size()); }

  /// Updates an edge weight in place (link quality changes over time in the
  /// distributed protocol simulations).
  void set_weight(EdgeId id, double weight);

  /// Returns the id of an arbitrary edge joining `u` and `v`, or -1.
  EdgeId find_edge(VertexId u, VertexId v) const;

  /// False if the edge was removed by `remove_edge`.
  bool is_alive(EdgeId id) const {
    MRLC_REQUIRE(id >= 0 && id < edge_count(), "edge id out of range");
    return alive_[static_cast<std::size_t>(id)];
  }

  /// Soft-deletes an edge: it disappears from adjacency and `alive_edge_ids`
  /// but keeps its id so external references stay valid.
  void remove_edge(EdgeId id);

  /// Ids of all alive edges.
  std::vector<EdgeId> alive_edge_ids() const;

  int alive_edge_count() const noexcept { return alive_count_; }

 private:
  int vertex_count_ = 0;
  int alive_count_ = 0;
  std::vector<Edge> edges_;
  std::vector<bool> alive_;
  std::vector<std::vector<EdgeId>> incident_;
};

}  // namespace mrlc::graph
