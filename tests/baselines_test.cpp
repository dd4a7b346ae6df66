#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/traversal.h"

namespace cbtc::baselines {
namespace {

using geom::vec2;
using graph::node_id;

constexpr double R = 500.0;
const radio::power_model pm(2.0, R);

std::vector<vec2> paper_positions(std::uint64_t seed) {
  return geom::uniform_points(100, geom::bbox::rect(1500, 1500), seed);
}

// ----------------------------------------------------------------- MST

TEST(Mst, TreeEdgeCountAndConnectivity) {
  const auto pts = paper_positions(1);
  const auto gr = graph::build_max_power_graph(pts, pm);
  const auto mst = euclidean_mst(pts, R);
  const auto comps = graph::connected_components(gr);
  EXPECT_EQ(mst.num_edges(), pts.size() - comps.count);
  EXPECT_TRUE(graph::same_connectivity(mst, gr));
}

TEST(Mst, SubgraphOfGr) {
  const auto pts = paper_positions(2);
  const auto gr = graph::build_max_power_graph(pts, pm);
  for (const graph::edge& e : euclidean_mst(pts, R).edges()) {
    EXPECT_TRUE(gr.has_edge(e.u, e.v));
  }
}

TEST(Mst, MinimizesMaxEdge) {
  // The MST's longest edge is the minimax bottleneck: every spanning
  // connected subgraph must use an edge at least that long somewhere.
  const auto pts = paper_positions(3);
  const auto mst = euclidean_mst(pts, R);
  const auto rng = relative_neighborhood_graph(pts, R);
  EXPECT_LE(graph::max_radius(mst, pts), graph::max_radius(rng, pts) + 1e-9);
}

TEST(Mst, KnownSquareCase) {
  // Unit square + center: MST has 4 edges, all center-to-corner or
  // corner-to-corner shortest.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {0, 100}, {100, 100}, {50, 50}};
  const auto mst = euclidean_mst(pts, 500.0);
  EXPECT_EQ(mst.num_edges(), 4u);
  EXPECT_TRUE(graph::is_connected(mst));
  // All four corners attach to the center (70.7 < 100).
  EXPECT_EQ(mst.degree(4), 4u);
}

// ----------------------------------------------------------------- RNG

TEST(Rng, SupersetOfMstSubsetOfGabriel) {
  // Classic sandwich: MST ⊆ RNG ⊆ Gabriel ⊆ Delaunay.
  const auto pts = paper_positions(4);
  const auto mst = euclidean_mst(pts, R);
  const auto rng = relative_neighborhood_graph(pts, R);
  const auto gg = gabriel_graph(pts, R);
  for (const graph::edge& e : mst.edges()) {
    EXPECT_TRUE(rng.has_edge(e.u, e.v)) << e.u << "-" << e.v;
  }
  for (const graph::edge& e : rng.edges()) {
    EXPECT_TRUE(gg.has_edge(e.u, e.v)) << e.u << "-" << e.v;
  }
}

TEST(Rng, PreservesConnectivity) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const auto pts = paper_positions(seed);
    const auto gr = graph::build_max_power_graph(pts, pm);
    EXPECT_TRUE(graph::same_connectivity(relative_neighborhood_graph(pts, R), gr));
  }
}

TEST(Rng, BlocksLuneWitness) {
  // Witness inside the lune of (0,1): edge removed.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {50, 10}};
  const auto rng = relative_neighborhood_graph(pts, 500.0);
  EXPECT_FALSE(rng.has_edge(0, 1));
  EXPECT_TRUE(rng.has_edge(0, 2));
  EXPECT_TRUE(rng.has_edge(1, 2));
}

// -------------------------------------------------------------- Gabriel

TEST(Gabriel, PreservesConnectivity) {
  for (std::uint64_t seed : {8u, 9u}) {
    const auto pts = paper_positions(seed);
    const auto gr = graph::build_max_power_graph(pts, pm);
    EXPECT_TRUE(graph::same_connectivity(gabriel_graph(pts, R), gr));
  }
}

TEST(Gabriel, DiameterCircleWitness) {
  // Witness inside the circle with diameter (0,1) blocks the edge; a
  // witness in the lune but outside that circle does not.
  const std::vector<vec2> in_circle{{0, 0}, {100, 0}, {50, 20}};
  EXPECT_FALSE(gabriel_graph(in_circle, 500.0).has_edge(0, 1));
  const std::vector<vec2> outside{{0, 0}, {100, 0}, {50, 60}};
  EXPECT_TRUE(gabriel_graph(outside, 500.0).has_edge(0, 1));
}

// ------------------------------------------------------------------ Yao

TEST(Yao, PreservesConnectivityWithSixCones) {
  for (std::uint64_t seed : {10u, 11u}) {
    const auto pts = paper_positions(seed);
    const auto gr = graph::build_max_power_graph(pts, pm);
    EXPECT_TRUE(graph::same_connectivity(yao_graph(pts, R, 6), gr));
  }
}

TEST(Yao, KeepsNearestPerCone) {
  // Two nodes in the same cone: only the nearest is linked.
  const std::vector<vec2> pts{{0, 0}, {100, 1.0}, {200, 2.0}};
  const auto yao = yao_graph(pts, 500.0, 6);
  EXPECT_TRUE(yao.has_edge(0, 1));
  EXPECT_TRUE(yao.has_edge(1, 2));
  EXPECT_FALSE(yao.has_edge(0, 2));
}

TEST(Yao, SparserThanGr) {
  const auto pts = paper_positions(12);
  const auto gr = graph::build_max_power_graph(pts, pm);
  const auto yao = yao_graph(pts, R, 8);
  EXPECT_LT(yao.num_edges(), gr.num_edges());
  EXPECT_LE(graph::average_degree(yao), graph::average_degree(gr));
}

TEST(Yao, DegenerateConeCounts) {
  const std::vector<vec2> pts{{0, 0}, {10, 0}};
  EXPECT_EQ(yao_graph(pts, 500.0, 0).num_edges(), 0u);
  EXPECT_EQ(yao_graph(pts, 500.0, 1).num_edges(), 1u);
}

// ------------------------------------------------------------------ kNN

TEST(Knn, DegreeBounds) {
  const auto pts = paper_positions(13);
  const auto knn = knn_graph(pts, R, 3);
  // Out-degree <= 3 before closure; closure can raise a node's degree
  // but every node has at least min(3, reachable) incident edges.
  for (node_id u = 0; u < pts.size(); ++u) {
    const auto gr_deg = graph::build_max_power_graph(pts, pm).degree(u);
    EXPECT_GE(knn.degree(u), std::min<std::size_t>(3, gr_deg));
  }
}

TEST(Knn, CanDisconnect) {
  // Two tight pairs far apart (but within R): 1-NN links only pair
  // members, losing the long bridge — the classic kNN failure.
  const std::vector<vec2> pts{{0, 0}, {10, 0}, {400, 0}, {410, 0}};
  const auto gr = graph::build_max_power_graph(pts, pm);
  EXPECT_TRUE(graph::is_connected(gr));
  const auto knn = knn_graph(pts, 500.0, 1);
  EXPECT_FALSE(graph::is_connected(knn));
}

TEST(Knn, ZeroK) {
  const auto pts = paper_positions(14);
  EXPECT_EQ(knn_graph(pts, R, 0).num_edges(), 0u);
}

// --------------------------------------------------------- comparative

TEST(Baselines, SparsityOrdering) {
  // On the paper's workload: MST <= RNG <= Gabriel <= GR in edge count.
  const auto pts = paper_positions(15);
  const auto mst = euclidean_mst(pts, R);
  const auto rng = relative_neighborhood_graph(pts, R);
  const auto gg = gabriel_graph(pts, R);
  const auto gr = graph::build_max_power_graph(pts, pm);
  EXPECT_LE(mst.num_edges(), rng.num_edges());
  EXPECT_LE(rng.num_edges(), gg.num_edges());
  EXPECT_LE(gg.num_edges(), gr.num_edges());
}

TEST(Baselines, AllSubgraphsOfGr) {
  const auto pts = paper_positions(16);
  const auto gr = graph::build_max_power_graph(pts, pm);
  for (const auto& g : {euclidean_mst(pts, R), relative_neighborhood_graph(pts, R),
                        gabriel_graph(pts, R), yao_graph(pts, R, 6), knn_graph(pts, R, 3)}) {
    for (const graph::edge& e : g.edges()) {
      EXPECT_TRUE(gr.has_edge(e.u, e.v));
    }
  }
}

}  // namespace
}  // namespace cbtc::baselines
