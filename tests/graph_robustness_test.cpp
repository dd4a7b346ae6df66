#include "graph/robustness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "baselines/baselines.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"

namespace cbtc::graph {
namespace {

std::vector<edge> path_edges(std::size_t n) {
  std::vector<edge> path;
  for (node_id i = 0; i + 1 < n; ++i) path.push_back({i, i + 1});
  return path;
}

undirected_graph path_graph(std::size_t n) {
  return undirected_graph::from_edges(n, path_edges(n));
}

undirected_graph cycle_graph(std::size_t n) {
  std::vector<edge> cycle = path_edges(n);
  cycle.push_back({0, static_cast<node_id>(n - 1)});
  return undirected_graph::from_edges(n, cycle);
}

/// `m` random endpoint pairs over n nodes (self-loops and repeats are
/// dropped by the builder).
undirected_graph random_graph(std::size_t n, int m, std::mt19937_64& rng) {
  std::vector<edge> edges;
  for (int e = 0; e < m; ++e) {
    edges.push_back({static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n)});
  }
  return undirected_graph::from_edges(n, edges);
}

/// `g` without the edge `cut`.
undirected_graph without(const undirected_graph& g, const edge& cut) {
  std::vector<edge> kept = g.edges();
  kept.erase(std::find(kept.begin(), kept.end(), cut));
  return undirected_graph::from_edges(g.num_nodes(), kept);
}

TEST(Articulation, PathInteriorIsAllCuts) {
  const auto cuts = articulation_points(path_graph(5));
  EXPECT_EQ(cuts, (std::vector<node_id>{1, 2, 3}));
}

TEST(Articulation, CycleHasNone) {
  EXPECT_TRUE(articulation_points(cycle_graph(6)).empty());
}

TEST(Articulation, BridgeNodeBetweenTriangles) {
  // Two triangles joined at node 2: node 2 is the unique cut vertex.
  const undirected_graph g =
      undirected_graph::from_edges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{2});
}

TEST(Articulation, StarCenter) {
  const undirected_graph g = undirected_graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{0});
}

TEST(Articulation, DisconnectedComponentsHandled) {
  const undirected_graph g = undirected_graph::from_edges(6, {
      {0, 1},
      {1, 2},  // path: 1 is a cut
      {3, 4},
      {4, 5},
      {3, 5},  // triangle: no cuts
  });
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{1});
}

TEST(Bridges, PathAllBridges) {
  const auto b = bridges(path_graph(4));
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], (edge{0, 1}));
  EXPECT_EQ(b[2], (edge{2, 3}));
}

TEST(Bridges, CycleHasNone) {
  EXPECT_TRUE(bridges(cycle_graph(5)).empty());
}

TEST(Bridges, MixedGraph) {
  // Triangle 0-1-2 with a pendant 2-3: only (2,3) is a bridge.
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto b = bridges(g);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], (edge{2, 3}));
}

TEST(Biconnected, SmallCases) {
  EXPECT_TRUE(is_biconnected(undirected_graph::from_edges(0, {})));
  EXPECT_TRUE(is_biconnected(undirected_graph::from_edges(1, {})));
  EXPECT_FALSE(is_biconnected(undirected_graph::from_edges(2, {})));  // disconnected
  const undirected_graph k2 = undirected_graph::from_edges(2, {{0, 1}});
  EXPECT_TRUE(is_biconnected(k2));
  EXPECT_TRUE(is_biconnected(cycle_graph(4)));
  EXPECT_FALSE(is_biconnected(path_graph(3)));
}

TEST(Biconnected, DisconnectedNever) {
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_biconnected(g));
}

// Property: removing an articulation point disconnects its component;
// removing a non-articulation vertex does not change the count of
// components among the remaining vertices.
TEST(Articulation, RemovalProperty) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 12;
    const undirected_graph g = random_graph(n, 18, rng);
    const auto cuts = articulation_points(g);
    std::vector<bool> is_cut(n, false);
    for (node_id c : cuts) is_cut[c] = true;

    const auto base = connected_components(g);
    for (node_id victim = 0; victim < n; ++victim) {
      // Build g minus victim (victim kept as isolated vertex).
      std::vector<edge> kept;
      for (const edge& e : g.edges()) {
        if (e.u != victim && e.v != victim) kept.push_back(e);
      }
      const undirected_graph h = undirected_graph::from_edges(n, kept);
      const auto after = connected_components(h);
      // Components among the other vertices: subtract the victim's
      // singleton (it had degree >= 1 iff it was in some component).
      const std::size_t before_others = base.count;
      const std::size_t after_others = after.count - (g.degree(victim) > 0 ? 1 : 0);
      if (is_cut[victim]) {
        EXPECT_GT(after_others, before_others) << "victim " << victim << " trial " << trial;
      } else {
        EXPECT_EQ(after_others, before_others) << "victim " << victim << " trial " << trial;
      }
    }
  }
}

// Property: every bridge's removal increases the component count.
TEST(Bridges, RemovalProperty) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 14;
    const undirected_graph g = random_graph(n, 16, rng);
    const std::size_t base = connected_components(g).count;
    for (const edge& b : bridges(g)) {
      EXPECT_EQ(connected_components(without(g, b)).count, base + 1)
          << "bridge " << b.u << "-" << b.v << " trial " << trial;
    }
    // And non-bridges do not split.
    const auto bs = bridges(g);
    auto is_bridge = [&bs](const edge& e) {
      return std::find(bs.begin(), bs.end(), e) != bs.end();
    };
    for (const edge& e : g.edges()) {
      if (is_bridge(e)) continue;
      EXPECT_EQ(connected_components(without(g, e)).count, base);
    }
  }
}

TEST(Robustness, MstIsMaximallyFragile) {
  // Every MST edge is a bridge; every internal MST node is a cut.
  const auto pts = geom::uniform_points(60, geom::bbox::rect(1000, 1000), 5);
  const auto mst = baselines::euclidean_mst(pts, 500.0);
  EXPECT_EQ(bridges(mst).size(), mst.num_edges());
}

}  // namespace
}  // namespace cbtc::graph
