#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/euclidean.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace cbtc::graph {
namespace {

TEST(AverageDegree, HandshakeLemma) {
  undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0 * 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(average_degree(undirected_graph(0)), 0.0);
}

TEST(NodeRadius, FarthestNeighbor) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 300.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 1), 100.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 2), 300.0);
}

TEST(NodeRadius, IsolatedUsesFallback) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  const undirected_graph g(2);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0, 500.0), 500.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 0.0);
}

TEST(AverageRadius, MeanOfNodeRadii) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(average_radius(g, pts), (300.0 + 100.0 + 300.0) / 3.0);
}

TEST(MaxRadius, LargestAnywhere) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(max_radius(g, pts), 300.0);
}

TEST(DegreeHistogram, CountsPerDegree) {
  undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 4u);  // max degree 3
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_EQ(h[3], 1u);
}

TEST(AveragePower, QuadraticCost) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  undirected_graph g(2);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(average_power(g, pts, 2.0), 100.0);
  EXPECT_DOUBLE_EQ(average_power(g, pts, 3.0), 1000.0);
}

// ----------------------------------------------------------- dijkstra

TEST(Dijkstra, PowerCostPrefersRelaying) {
  // Quadratic cost makes two 100-hops (2 * 100^2) cheaper than one
  // 200-hop (200^2) — the paper's motivation for topology control.
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}};
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const auto d = dijkstra(g, 0, power_cost(pts, 2.0));
  EXPECT_DOUBLE_EQ(d[2], 2.0 * 100.0 * 100.0);
}

TEST(Dijkstra, EuclideanCostPrefersDirect) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 50}, {200, 0}};
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const auto d = dijkstra(g, 0, euclidean_cost(pts));
  EXPECT_DOUBLE_EQ(d[2], 200.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  undirected_graph g(3);
  g.add_edge(0, 1);
  const std::vector<geom::vec2> pts{{0, 0}, {1, 0}, {2, 0}};
  const auto d = dijkstra(g, 0, euclidean_cost(pts));
  EXPECT_TRUE(std::isinf(d[2]));
  EXPECT_DOUBLE_EQ(d[0], 0.0);
}

// ------------------------------------------------------------ stretch

TEST(Stretch, IdenticalGraphsHaveUnitStretch) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}, {300, 0}};
  const auto g = build_max_power_graph(pts, radio::power_model(2.0, 150.0));
  const auto s = power_stretch(g, g, pts, 2.0, pts.size());
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_GT(s.pairs, 0u);
}

TEST(Stretch, RemovingShortcutIncreasesHops) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}};
  undirected_graph dense(3);
  dense.add_edge(0, 1);
  dense.add_edge(1, 2);
  dense.add_edge(0, 2);
  undirected_graph sparse(3);
  sparse.add_edge(0, 1);
  sparse.add_edge(1, 2);
  const auto s = hop_stretch(sparse, dense, 3);
  EXPECT_GT(s.max, 1.0);
  EXPECT_GE(s.mean, 1.0);
}

TEST(Stretch, PowerStretchCanBeBelowOneNever) {
  // The sparse graph is a subgraph, so its optimal routes can never be
  // cheaper; stretch >= 1 always.
  const std::vector<geom::vec2> pts{{0, 0}, {80, 10}, {160, -10}, {240, 0}, {120, 90}};
  const auto dense = build_max_power_graph(pts, radio::power_model(2.0, 200.0));
  undirected_graph sparse(5);
  sparse.add_edge(0, 1);
  sparse.add_edge(1, 2);
  sparse.add_edge(2, 3);
  sparse.add_edge(1, 4);
  const auto s = power_stretch(sparse, dense, pts, 2.0, 5);
  EXPECT_GE(s.mean, 1.0 - 1e-12);
  EXPECT_GE(s.max, s.mean);
}

TEST(Stretch, EmptyGraphsYieldDefaults) {
  const std::vector<geom::vec2> pts;
  const auto s = power_stretch(undirected_graph(0), undirected_graph(0), pts, 2.0);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_EQ(s.pairs, 0u);
}

}  // namespace
}  // namespace cbtc::graph
