#include "graph/graph.hpp"

#include <algorithm>

namespace mrlc::graph {

Graph::Graph(int vertex_count) : vertex_count_(vertex_count) {
  MRLC_REQUIRE(vertex_count >= 0, "vertex count must be non-negative");
  incident_.resize(static_cast<std::size_t>(vertex_count));
}

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  MRLC_REQUIRE(u >= 0 && u < vertex_count_, "endpoint u out of range");
  MRLC_REQUIRE(v >= 0 && v < vertex_count_, "endpoint v out of range");
  MRLC_REQUIRE(u != v, "self-loops are not allowed");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  alive_.push_back(true);
  ++alive_count_;
  incident_[static_cast<std::size_t>(u)].push_back(id);
  incident_[static_cast<std::size_t>(v)].push_back(id);
  return id;
}

void Graph::set_weight(EdgeId id, double weight) {
  MRLC_REQUIRE(id >= 0 && id < edge_count(), "edge id out of range");
  edges_[static_cast<std::size_t>(id)].weight = weight;
}

EdgeId Graph::find_edge(VertexId u, VertexId v) const {
  MRLC_REQUIRE(u >= 0 && u < vertex_count_, "endpoint u out of range");
  MRLC_REQUIRE(v >= 0 && v < vertex_count_, "endpoint v out of range");
  for (EdgeId id : incident(u)) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return id;
  }
  return -1;
}

void Graph::remove_edge(EdgeId id) {
  MRLC_REQUIRE(id >= 0 && id < edge_count(), "edge id out of range");
  if (!alive_[static_cast<std::size_t>(id)]) return;
  alive_[static_cast<std::size_t>(id)] = false;
  --alive_count_;
  const Edge& e = edges_[static_cast<std::size_t>(id)];
  for (VertexId endpoint : {e.u, e.v}) {
    auto& list = incident_[static_cast<std::size_t>(endpoint)];
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  }
}

std::vector<EdgeId> Graph::alive_edge_ids() const {
  std::vector<EdgeId> ids;
  ids.reserve(static_cast<std::size_t>(alive_count_));
  for (EdgeId id = 0; id < edge_count(); ++id) {
    if (alive_[static_cast<std::size_t>(id)]) ids.push_back(id);
  }
  return ids;
}

}  // namespace mrlc::graph
