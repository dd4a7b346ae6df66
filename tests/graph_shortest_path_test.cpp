// Edge cases of graph::dijkstra_tree left untested by the metrics
// suite: unreachable sinks, zero-weight and duplicate edges, trivial
// graphs, and tie-break determinism (including graphs assembled at
// different pool widths).
#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

using geom::vec2;

const edge_cost_fn unit_cost = [](node_id, node_id) { return 1.0; };

TEST(DijkstraTree, UnreachableSinkKeepsInfinityAndNoParent) {
  // {0,1} connected, {2,3} connected, no bridge
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {2, 3}});
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[0], 0.0);
  EXPECT_EQ(t.dist[1], 1.0);
  EXPECT_TRUE(std::isinf(t.dist[2]));
  EXPECT_TRUE(std::isinf(t.dist[3]));
  EXPECT_EQ(t.parent[0], invalid_node);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], invalid_node);
  EXPECT_EQ(t.parent[3], invalid_node);
}

TEST(DijkstraTree, ZeroWeightEdgesSettleDeterministically) {
  // A 4-cycle where every edge costs 0: all nodes at distance 0, and
  // the (distance, node id) heap order makes the parents reproducible
  // — each node's parent is its smallest-id zero-distance neighbor
  // settled first.
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const edge_cost_fn zero = [](node_id, node_id) { return 0.0; };
  const shortest_path_tree a = dijkstra_tree(g, 0, zero);
  for (const double d : a.dist) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(a.parent[0], invalid_node);
  // Identical on every rerun (pure function of graph + cost).
  const shortest_path_tree b = dijkstra_tree(g, 0, zero);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(DijkstraTree, DuplicateEdgeInsertionsDoNotSkewDistances) {
  // from_edges drops duplicates (and self-loops), so hammering the
  // same edge leaves one adjacency entry and one relaxation per hop.
  std::vector<edge> hammered;
  for (int i = 0; i < 5; ++i) hammered.insert(hammered.end(), {{0, 1}, {1, 0}, {1, 2}, {1, 1}});
  const undirected_graph g = undirected_graph::from_edges(3, hammered);
  EXPECT_EQ(g.num_edges(), 2u);
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[2], 2.0);
  EXPECT_EQ(t.parent[2], 1u);
}

TEST(DijkstraTree, SingleNodeGraph) {
  const undirected_graph g = undirected_graph::from_edges(1, {});
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  ASSERT_EQ(t.dist.size(), 1u);
  EXPECT_EQ(t.dist[0], 0.0);
  EXPECT_EQ(t.parent[0], invalid_node);
}

TEST(DijkstraTree, EqualCostTiesBreakTowardSmallerIds) {
  // Two equal-cost routes to node 3: via 1 and via 2. The heap's
  // (distance, id) order settles 1 first, so 3's parent must be 1.
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[3], 2.0);
  EXPECT_EQ(t.parent[3], 1u);
}

TEST(DijkstraTree, IdenticalOnGraphsBuiltAtAnyPoolWidth) {
  // The trees must agree bit for bit whether the input CSR was
  // assembled serially or by a wide pool — the graphs are equal, and
  // dijkstra_tree is a pure function of the adjacency.
  const std::vector<vec2> positions =
      geom::uniform_points(150, geom::bbox::rect(1500.0, 1500.0), 11);
  const radio::power_model pm(2.0, 500.0);
  util::thread_pool one(1);
  util::thread_pool wide(8);
  const undirected_graph a = build_max_power_graph(positions, pm, one);
  const undirected_graph b = build_max_power_graph(positions, pm, wide);
  ASSERT_TRUE(a == b);
  const edge_cost_fn cost = power_cost(positions, 2.0);
  const shortest_path_tree ta = dijkstra_tree(a, 7, cost);
  const shortest_path_tree tb = dijkstra_tree(b, 7, cost);
  EXPECT_EQ(ta.dist, tb.dist);
  EXPECT_EQ(ta.parent, tb.parent);
}

}  // namespace
}  // namespace cbtc::graph
