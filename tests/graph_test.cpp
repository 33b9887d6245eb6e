#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "graph/dsu.hpp"
#include "graph/enumeration.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/mst.hpp"
#include "graph/traversal.hpp"

namespace mrlc::graph {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  return g;
}

/// G(n, p) with unit-ish weights, for property sweeps.
Graph random_graph(int n, double p, Rng& rng) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v, rng.uniform(0.1, 10.0));
    }
  }
  return g;
}

// ---------------------------------------------------------------- graph --

TEST(Graph, BasicAccounting) {
  Graph g = triangle();
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.alive_edge_count(), 3);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 2.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(g.edge(0), std::invalid_argument);
}

TEST(Graph, EdgeOtherEndpoint) {
  Graph g = triangle();
  EXPECT_EQ(g.edge(0).other(0), 1);
  EXPECT_EQ(g.edge(0).other(1), 0);
  EXPECT_THROW(g.edge(0).other(2), std::invalid_argument);
}

TEST(Graph, FindEdgeBothOrders) {
  Graph g = triangle();
  EXPECT_EQ(g.find_edge(1, 2), 1);
  EXPECT_EQ(g.find_edge(2, 1), 1);
  Graph g2(4);
  g2.add_edge(0, 1, 1.0);
  EXPECT_EQ(g2.find_edge(2, 3), -1);
}

TEST(Graph, RemoveEdgeUpdatesAdjacency) {
  Graph g = triangle();
  g.remove_edge(0);
  EXPECT_FALSE(g.is_alive(0));
  EXPECT_EQ(g.alive_edge_count(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.find_edge(0, 1), -1);
  g.remove_edge(0);  // idempotent
  EXPECT_EQ(g.alive_edge_count(), 2);
}

TEST(Graph, SetWeight) {
  Graph g = triangle();
  g.set_weight(2, 9.0);
  EXPECT_DOUBLE_EQ(g.edge(2).weight, 9.0);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.degree(0), 2);
}

// ------------------------------------------------------------------ dsu --

TEST(Dsu, UniteAndFind) {
  DisjointSetUnion dsu(5);
  EXPECT_EQ(dsu.set_count(), 5);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(1, 2));
  EXPECT_FALSE(dsu.unite(0, 2));
  EXPECT_TRUE(dsu.connected(0, 2));
  EXPECT_FALSE(dsu.connected(0, 3));
  EXPECT_EQ(dsu.set_count(), 3);
  EXPECT_EQ(dsu.set_size(1), 3);
  EXPECT_EQ(dsu.set_size(4), 1);
}

TEST(Dsu, OutOfRangeThrows) {
  DisjointSetUnion dsu(2);
  EXPECT_THROW(dsu.find(2), std::invalid_argument);
  EXPECT_THROW(dsu.find(-1), std::invalid_argument);
}

// ------------------------------------------------------------ traversal --

TEST(Traversal, ComponentsOfDisconnectedGraph) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[2], c.label[3]);
  EXPECT_NE(c.label[0], c.label[2]);
  EXPECT_NE(c.label[4], c.label[0]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Traversal, SingleVertexIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Traversal, BfsTreeDepthsAndParents) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  const BfsTree t = bfs_tree(g, 0);
  EXPECT_EQ(t.parent_vertex[0], 0);
  EXPECT_EQ(t.depth[2], 2);
  EXPECT_EQ(t.parent_vertex[2], 1);
  EXPECT_EQ(t.parent_edge[3], 2);
}

TEST(Traversal, BfsTreeUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const BfsTree t = bfs_tree(g, 0);
  EXPECT_EQ(t.depth[2], -1);
  EXPECT_EQ(t.parent_vertex[2], -1);
}

TEST(Traversal, ReachableWithoutEdgeSplitsTree) {
  Graph g(4);
  const EdgeId bridge = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  const auto side = reachable_without_edge(g, 1, bridge);
  const std::set<VertexId> s(side.begin(), side.end());
  EXPECT_EQ(s, (std::set<VertexId>{1, 2, 3}));
  const auto all = reachable_without_edge(g, 1, -1);
  EXPECT_EQ(all.size(), 4u);
}

// ------------------------------------------------------------------ mst --

TEST(Mst, TriangleTakesTwoCheapest) {
  const Graph g = triangle();
  const auto prim = prim_mst(g, 0);
  const auto kruskal = kruskal_mst(g);
  ASSERT_TRUE(prim.has_value());
  ASSERT_TRUE(kruskal.has_value());
  EXPECT_DOUBLE_EQ(prim->total_weight, 3.0);
  EXPECT_DOUBLE_EQ(kruskal->total_weight, 3.0);
}

TEST(Mst, DisconnectedReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(prim_mst(g, 0).has_value());
  EXPECT_FALSE(kruskal_mst(g).has_value());
}

TEST(Mst, RespectsRemovedEdges) {
  Graph g = triangle();
  g.remove_edge(0);  // force the expensive path
  const auto t = prim_mst(g, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->total_weight, 5.0);
}

TEST(Mst, EmptyAndSingleton) {
  EXPECT_THROW(prim_mst(Graph(0), 0), std::invalid_argument);  // root out of range
  const auto t = prim_mst(Graph(1), 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->edges.empty());
}

TEST(Mst, PrimEqualsKruskalOnRandomGraphs) {
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = random_graph(10, 0.5, rng);
    const auto p = prim_mst(g, 0);
    const auto k = kruskal_mst(g);
    ASSERT_EQ(p.has_value(), k.has_value());
    if (p.has_value()) {
      EXPECT_NEAR(p->total_weight, k->total_weight, 1e-9);
      EXPECT_EQ(p->edges.size(), 9u);
    }
  }
}

// -------------------------------------------------------------- maxflow --

TEST(MaxFlow, SimplePath) {
  MaxFlow f(3);
  f.add_arc(0, 1, 5.0);
  f.add_arc(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 3.0);
}

TEST(MaxFlow, ParallelPaths) {
  MaxFlow f(4);
  f.add_arc(0, 1, 2.0);
  f.add_arc(1, 3, 2.0);
  f.add_arc(0, 2, 3.0);
  f.add_arc(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 3), 3.0);
}

TEST(MaxFlow, ClassicCLRSNetwork) {
  // CLRS figure 26.1: max flow 23.
  MaxFlow f(6);
  f.add_arc(0, 1, 16);
  f.add_arc(0, 2, 13);
  f.add_arc(1, 2, 10);
  f.add_arc(2, 1, 4);
  f.add_arc(1, 3, 12);
  f.add_arc(3, 2, 9);
  f.add_arc(2, 4, 14);
  f.add_arc(4, 3, 7);
  f.add_arc(3, 5, 20);
  f.add_arc(4, 5, 4);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 5), 23.0);
}

TEST(MaxFlow, MinCutMatchesFlow) {
  MaxFlow f(4);
  f.add_arc(0, 1, 1.0);
  f.add_arc(0, 2, 1.0);
  f.add_arc(1, 3, 2.0);
  f.add_arc(2, 3, 0.5);
  const double flow = f.max_flow(0, 3);
  EXPECT_DOUBLE_EQ(flow, 1.5);
  const auto side = f.min_cut_source_side(0);
  const std::set<int> s(side.begin(), side.end());
  EXPECT_TRUE(s.count(0));
  EXPECT_FALSE(s.count(3));
}

TEST(MaxFlow, ResetRestoresCapacities) {
  MaxFlow f(2);
  f.add_arc(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 1), 0.0);  // saturated
  f.reset();
  EXPECT_DOUBLE_EQ(f.max_flow(0, 1), 4.0);
}

TEST(MaxFlow, UndirectedEdgeCarriesBothWays) {
  MaxFlow f(3);
  f.add_undirected(0, 1, 2.0);
  f.add_undirected(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 2.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.max_flow(2, 0), 2.0);
}

TEST(MaxFlow, RejectsBadInput) {
  MaxFlow f(2);
  EXPECT_THROW(f.add_arc(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(f.max_flow(0, 0), std::invalid_argument);
  EXPECT_THROW(MaxFlow(2, 0.0), std::invalid_argument);
}

TEST(MaxFlow, AddArcReturnsIndexAmongAllArcsOfItsSource) {
  // Reverse entries count: node 1 holds the reverse of 0->1 before 1->0.
  MaxFlow f(3);
  EXPECT_EQ(f.add_arc(0, 1, 1.0), 0);
  EXPECT_EQ(f.add_arc(1, 0, 1.0), 1);
  EXPECT_EQ(f.add_arc(0, 2, 1.0), 2);
  EXPECT_EQ(f.add_arc(2, 1, 1.0), 1);
}

TEST(MaxFlow, SweepCycleRepeatsExactly) {
  // The separation sweep's reuse pattern: raise one zero arc, solve,
  // restore it, reset, and solve again for another arc — each solve must
  // equal the same solve on a freshly built network.
  auto build = [](MaxFlow& f, std::vector<int>& force) {
    f.add_arc(0, 1, 0.75);
    f.add_arc(2, 5, 1.25);
    f.add_undirected(1, 2, 0.5);
    f.add_undirected(2, 3, 1.0);
    f.add_undirected(3, 4, 0.25);
    f.add_arc(4, 5, 2.0);
    force.clear();
    for (int v = 1; v <= 4; ++v) force.push_back(f.add_arc(0, v, 0.0));
  };
  MaxFlow reused(6);
  std::vector<int> force;
  build(reused, force);
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 4; ++k) {
      reused.set_arc_capacity(0, force[static_cast<std::size_t>(k)], 1e12);
      const double value = reused.max_flow(0, 5);
      const std::vector<int> side = reused.min_cut_source_side(0);
      reused.set_arc_capacity(0, force[static_cast<std::size_t>(k)], 0.0);
      reused.reset();

      MaxFlow fresh(6);
      std::vector<int> fresh_force;
      build(fresh, fresh_force);
      fresh.set_arc_capacity(0, fresh_force[static_cast<std::size_t>(k)], 1e12);
      EXPECT_EQ(value, fresh.max_flow(0, 5)) << "round " << round << " arc " << k;
      EXPECT_EQ(side, fresh.min_cut_source_side(0)) << "round " << round << " arc " << k;
    }
  }
  // After the last restore the network is back to its original flow.
  MaxFlow plain(6);
  build(plain, force);
  EXPECT_EQ(reused.max_flow(0, 5), plain.max_flow(0, 5));
}

TEST(MaxFlow, AddArcAfterMaxFlowLaysOutAgain) {
  MaxFlow f(3);
  f.add_arc(0, 1, 2.0);
  f.add_arc(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 1.0);
  // The new arc joins the solved network; earlier residuals survive.
  EXPECT_EQ(f.add_arc(0, 2, 3.0), 1);
  const std::vector<int> before = f.min_cut_source_side(0);  // not yet laid out
  EXPECT_EQ(before, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 3.0);
  EXPECT_EQ(f.min_cut_source_side(0), (std::vector<int>{0, 1}));
  f.reset();
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 4.0);
  // Indices handed out before the second layout still address their arcs.
  f.set_arc_capacity(0, 0, 0.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 3.0);
  f.set_arc_capacity(0, 1, 0.5);
  f.reset();
  EXPECT_DOUBLE_EQ(f.max_flow(0, 2), 0.5);
  EXPECT_THROW(f.set_arc_capacity(0, 2, 1.0), std::invalid_argument);
}

TEST(MaxFlow, ResetNetworkShrinksThenGrows) {
  MaxFlow f(5);
  f.add_arc(0, 3, 4.0);
  f.add_arc(3, 4, 2.0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 4), 2.0);

  f.reset_network(2);
  EXPECT_THROW(f.add_arc(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(f.set_arc_capacity(0, 0, 1.0), std::invalid_argument);  // no arcs left
  EXPECT_EQ(f.add_arc(0, 1, 1.5), 0);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 1), 1.5);
  EXPECT_EQ(f.min_cut_source_side(0), (std::vector<int>{0}));

  f.reset_network(6);
  f.add_undirected(0, 5, 1.0);
  f.add_arc(0, 2, 2.0);
  f.add_arc(2, 5, 0.5);
  EXPECT_DOUBLE_EQ(f.max_flow(0, 5), 1.5);
  EXPECT_EQ(f.min_cut_source_side(0), (std::vector<int>{0, 2}));
  EXPECT_THROW(f.reset_network(-1), std::invalid_argument);
}

TEST(MaxFlow, BruteForceMinCutOnRandomNetworks) {
  // Integer capacities keep every flow and cut sum exact, and make tied
  // minimum cuts common — the case where the minimal source side matters.
  Rng rng(90210);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    const int source = 0;
    const int sink = n - 1;
    std::vector<std::vector<double>> cap(static_cast<std::size_t>(n),
                                         std::vector<double>(static_cast<std::size_t>(n), 0.0));
    MaxFlow f(n);
    const int arcs = static_cast<int>(rng.uniform_int(0, 3 * n));
    for (int k = 0; k < arcs; ++k) {
      const int a = static_cast<int>(rng.uniform_int(0, n - 1));
      const int b = static_cast<int>(rng.uniform_int(0, n - 1));
      if (a == b) continue;
      const double c = static_cast<double>(rng.uniform_int(0, 3));
      if (rng.bernoulli(0.5)) {
        f.add_undirected(a, b, c);
        cap[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] += c;
      } else {
        f.add_arc(a, b, c);
      }
      cap[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] += c;
    }
    const double flow = f.max_flow(source, sink);

    auto cut_of = [&](unsigned mask) {
      double total = 0.0;
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if ((mask >> u & 1U) != 0 && (mask >> v & 1U) == 0) {
            total += cap[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
          }
        }
      }
      return total;
    };
    double best = std::numeric_limits<double>::infinity();
    std::vector<unsigned> minimizers;
    for (unsigned mask = 0; mask < (1U << n); ++mask) {
      if ((mask & 1U) == 0 || (mask >> sink & 1U) != 0) continue;
      const double c = cut_of(mask);
      if (c < best) {
        best = c;
        minimizers.clear();
      }
      if (c == best) minimizers.push_back(mask);
    }
    EXPECT_EQ(flow, best) << "trial " << trial;

    unsigned side_mask = 0;
    for (int v : f.min_cut_source_side(source)) side_mask |= 1U << v;
    EXPECT_EQ(cut_of(side_mask), best) << "trial " << trial;
    for (unsigned mask : minimizers) {
      EXPECT_EQ(side_mask & ~mask, 0U) << "trial " << trial << ": source side "
                                       << side_mask << " not inside min cut " << mask;
    }
  }
}

// ---------------------------------------------------------- enumeration --

TEST(Enumeration, CayleyCountsForCompleteGraphs) {
  // Cayley: K_n has n^(n-2) spanning trees.
  for (int n = 2; n <= 6; ++n) {
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) g.add_edge(u, v, 1.0);
    }
    std::uint64_t expected = 1;
    for (int i = 0; i < n - 2; ++i) expected *= static_cast<std::uint64_t>(n);
    EXPECT_EQ(count_spanning_trees(g), expected) << "n=" << n;
  }
}

TEST(Enumeration, CycleGraphHasNTrees) {
  const int n = 7;
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n, 1.0);
  EXPECT_EQ(count_spanning_trees(g), static_cast<std::uint64_t>(n));
}

TEST(Enumeration, TreeHasExactlyOne) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  EXPECT_EQ(count_spanning_trees(g), 1u);
}

TEST(Enumeration, DisconnectedHasNone) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(count_spanning_trees(g), 0u);
}

TEST(Enumeration, LimitStopsEarly) {
  Graph g(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) g.add_edge(u, v, 1.0);
  }
  EXPECT_EQ(count_spanning_trees(g, 10), 10u);
}

TEST(Enumeration, MinEnumeratedMatchesMst) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_graph(7, 0.6, rng);
    const auto mst = kruskal_mst(g);
    double best = 1e18;
    bool any = false;
    for_each_spanning_tree(g, [&](const SpanningTree& t) {
      best = std::min(best, t.total_weight);
      any = true;
      return true;
    });
    ASSERT_EQ(mst.has_value(), any);
    if (any) {
      EXPECT_NEAR(best, mst->total_weight, 1e-9);
    }
  }
}

TEST(Enumeration, EveryVisitIsASpanningTree) {
  Rng rng(78);
  const Graph g = random_graph(6, 0.7, rng);
  for_each_spanning_tree(g, [&](const SpanningTree& t) {
    EXPECT_EQ(t.edges.size(), 5u);
    DisjointSetUnion dsu(6);
    for (EdgeId id : t.edges) {
      EXPECT_TRUE(dsu.unite(g.edge(id).u, g.edge(id).v));
    }
    EXPECT_EQ(dsu.set_count(), 1);
    return true;
  });
}

}  // namespace
}  // namespace mrlc::graph

// --------------------------------------------------------- shortest path --

#include "graph/shortest_path.hpp"

namespace mrlc::graph {
namespace {

TEST(Dijkstra, SimplePathDistances) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 9.0);
  EXPECT_EQ(sp.parent_vertex[3], 2);
  EXPECT_EQ(sp.parent_vertex[0], 0);
}

TEST(Dijkstra, PicksCheaperDetour) {
  Graph g(4);
  g.add_edge(0, 3, 10.0);  // direct but expensive
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 3.0);
  EXPECT_EQ(sp.parent_vertex[3], 2);
}

TEST(Dijkstra, UnreachableVerticesStayInfinite) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_TRUE(std::isinf(sp.distance[2]));
  EXPECT_EQ(sp.parent_vertex[2], -1);
}

TEST(Dijkstra, CustomWeightFunction) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 100.0);  // stored weight ignored
  const EdgeId b = g.add_edge(1, 2, 100.0);
  const ShortestPaths sp =
      dijkstra(g, 0, [&](EdgeId id) { return id == a ? 1.0 : 2.0; });
  (void)b;
  EXPECT_DOUBLE_EQ(sp.distance[2], 3.0);
}

TEST(Dijkstra, RejectsNegativeWeights) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW(dijkstra(g, 0), std::invalid_argument);
  EXPECT_THROW(dijkstra(g, 5), std::invalid_argument);
}

TEST(Dijkstra, AgreesWithBfsOnUnitWeights) {
  Rng rng(333);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(10);
    for (int u = 0; u < 10; ++u) {
      for (int v = u + 1; v < 10; ++v) {
        if (rng.bernoulli(0.3)) g.add_edge(u, v, 1.0);
      }
    }
    const ShortestPaths sp = dijkstra(g, 0);
    const BfsTree bfs = bfs_tree(g, 0);
    for (int v = 0; v < 10; ++v) {
      if (bfs.depth[static_cast<std::size_t>(v)] == -1) {
        EXPECT_TRUE(std::isinf(sp.distance[static_cast<std::size_t>(v)]));
      } else {
        EXPECT_DOUBLE_EQ(sp.distance[static_cast<std::size_t>(v)],
                         bfs.depth[static_cast<std::size_t>(v)]);
      }
    }
  }
}

}  // namespace
}  // namespace mrlc::graph

// -------------------------------------------------------------- kirchhoff --

#include "graph/kirchhoff.hpp"

namespace mrlc::graph {
namespace {

TEST(Kirchhoff, MatchesCayleyOnCompleteGraphs) {
  for (int n = 2; n <= 8; ++n) {
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) g.add_edge(u, v, 1.0);
    }
    double expected = 1.0;
    for (int i = 0; i < n - 2; ++i) expected *= n;
    EXPECT_NEAR(count_spanning_trees_kirchhoff(g), expected, expected * 1e-9)
        << "n=" << n;
  }
}

TEST(Kirchhoff, MatchesEnumerationOnRandomGraphs) {
  Rng rng(444);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = random_graph(7, 0.55, rng);
    const double kirchhoff = count_spanning_trees_kirchhoff(g);
    const auto enumerated = static_cast<double>(count_spanning_trees(g));
    EXPECT_NEAR(kirchhoff, enumerated, std::max(1e-6, enumerated * 1e-9))
        << "trial " << trial;
  }
}

TEST(Kirchhoff, ZeroForDisconnected) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_NEAR(count_spanning_trees_kirchhoff(g), 0.0, 1e-9);
}

TEST(Kirchhoff, ParallelEdgesCountSeparately) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 1.0);
  EXPECT_NEAR(count_spanning_trees_kirchhoff(g), 3.0, 1e-9);
}

TEST(Kirchhoff, TrivialGraphs) {
  EXPECT_DOUBLE_EQ(count_spanning_trees_kirchhoff(Graph(0)), 1.0);
  EXPECT_DOUBLE_EQ(count_spanning_trees_kirchhoff(Graph(1)), 1.0);
  Graph two(2);
  EXPECT_NEAR(count_spanning_trees_kirchhoff(two), 0.0, 1e-9);  // no edge
}

TEST(Kirchhoff, ScalesWhereEnumerationCannot) {
  // K16 has 16^14 ~ 7.2e16 spanning trees; Kirchhoff gets it instantly.
  Graph g(16);
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) g.add_edge(u, v, 1.0);
  }
  const double count = count_spanning_trees_kirchhoff(g);
  EXPECT_NEAR(count, std::pow(16.0, 14.0), std::pow(16.0, 14.0) * 1e-6);
}

}  // namespace
}  // namespace mrlc::graph
