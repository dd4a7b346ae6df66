// Edge cases of graph::dijkstra_tree left untested by the metrics
// suite: unreachable sinks, zero-weight and duplicate edges, trivial
// graphs, and tie-break determinism (including graphs assembled at
// different pool widths). Plus an independent reference for the
// indexed 4-ary heap: a lazy binary heap of (distance, id) pairs.
#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <utility>
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

// ---- independent reference for the heap ----------------------------

/// Textbook lazy Dijkstra: a binary heap of (distance, id) pairs, a
/// fresh entry per strict improvement, stale entries skipped on pop.
/// The pair order settles nodes by (distance, id) — the order the
/// library's indexed heap promises — so distances must match bitwise
/// and parents exactly.
shortest_path_tree lazy_reference_tree(const undirected_graph& g, node_id from,
                                       const edge_cost_fn& cost) {
  shortest_path_tree t;
  t.dist.assign(g.num_nodes(), std::numeric_limits<double>::infinity());
  t.parent.assign(g.num_nodes(), invalid_node);
  std::vector<std::pair<double, node_id>> heap;
  const std::greater<> later;
  t.dist[from] = 0.0;
  heap.emplace_back(0.0, from);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > t.dist[u]) continue;
    for (const node_id v : g.neighbors(u)) {
      const double nd = d + cost(u, v);
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        t.parent[v] = u;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  return t;
}

/// A seeded random graph on `n` nodes with about `n * avg_degree / 2`
/// edges, plus a symmetric integer cost in [0, max_cost] per edge
/// (max_cost 0: every edge is free). Small integer costs make many
/// equal-distance ties, so the (distance, id) settle order decides
/// most parents.
struct random_instance {
  undirected_graph g;
  std::vector<std::vector<double>> cost;  // dense n x n, symmetric
};

random_instance make_random_instance(std::size_t n, std::size_t avg_degree, int max_cost,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> weight(0, max_cost);
  random_instance inst;
  inst.cost.assign(n, std::vector<double>(n, 0.0));
  std::vector<edge> edges;
  for (std::size_t i = 0; i < n * avg_degree / 2; ++i) {
    const auto u = static_cast<node_id>(pick(rng));
    const auto v = static_cast<node_id>(pick(rng));
    if (u == v) continue;
    edges.push_back({u, v});
    inst.cost[u][v] = inst.cost[v][u] = static_cast<double>(weight(rng));
  }
  inst.g = undirected_graph::from_edges(n, edges);
  return inst;
}

TEST(DijkstraHeap, MatchesLazyBinaryHeapOnTieHeavyRandomGraphs) {
  for (const int max_cost : {0, 1, 3, 20}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const random_instance inst = make_random_instance(400, 6, max_cost, seed * 131 + 7);
      const edge_cost_fn cost = [&inst](node_id u, node_id v) { return inst.cost[u][v]; };
      for (const node_id from : {0u, 17u, 399u}) {
        SCOPED_TRACE(::testing::Message()
                     << "max_cost=" << max_cost << " seed=" << seed << " from=" << from);
        const shortest_path_tree ref = lazy_reference_tree(inst.g, from, cost);
        const shortest_path_tree got = dijkstra_tree(inst.g, from, cost);
        EXPECT_EQ(got.dist, ref.dist);  // bitwise doubles
        EXPECT_EQ(got.parent, ref.parent);
        EXPECT_EQ(dijkstra(inst.g, from, cost), ref.dist);
      }
    }
  }
}

TEST(DijkstraHeap, MatchesLazyBinaryHeapOnGeometricPowerCosts) {
  // Real-valued d^2 costs on a max-power graph: distances are sums of
  // irrational-looking doubles, so bitwise equality also pins the
  // order in which each node's final sum is formed.
  const std::vector<vec2> positions =
      geom::uniform_points(600, geom::bbox::rect(3000.0, 3000.0), 29);
  const undirected_graph g = build_max_power_graph(positions, radio::power_model(2.0, 500.0));
  const edge_cost_fn cost = power_cost(positions, 2.0);
  for (const node_id from : {0u, 250u, 599u}) {
    const shortest_path_tree ref = lazy_reference_tree(g, from, cost);
    const shortest_path_tree got = dijkstra_tree(g, from, cost);
    EXPECT_EQ(got.dist, ref.dist);
    EXPECT_EQ(got.parent, ref.parent);
  }
}

TEST(DijkstraHeap, ReusedStorageGivesFreshRunsAcrossGraphSizes) {
  // One caller-owned heap across sources and graphs of different
  // sizes: the slot index is never cleared, so a stale slot from an
  // earlier run must not leak into a later one.
  dijkstra_heap heap;
  std::vector<double> dist;
  for (const std::size_t n : {300u, 50u, 500u, 50u}) {
    const random_instance inst = make_random_instance(n, 5, 2, n);
    const edge_cost_fn cost = [&inst](node_id u, node_id v) { return inst.cost[u][v]; };
    for (node_id from = 0; from < 5; ++from) {
      std::vector<node_id> parent(n, invalid_node);
      dijkstra_into(inst.g, from, cost, dist, heap,
                    [&parent](node_id v, node_id u) { parent[v] = u; });
      const shortest_path_tree ref = lazy_reference_tree(inst.g, from, cost);
      EXPECT_EQ(dist, ref.dist) << "n=" << n << " from=" << from;
      EXPECT_EQ(parent, ref.parent) << "n=" << n << " from=" << from;
    }
  }
}

TEST(DijkstraHeap, CostLowerBoundSkipsOnlyNonImprovingRelaxations) {
  // Any bound with 0 <= bound <= cost (here: the cost itself, the
  // tightest one, and half of it) leaves distances and parents exactly
  // as the full relaxation has them.
  dijkstra_heap heap;
  std::vector<double> dist;
  for (const int max_cost : {0, 2, 9}) {
    const random_instance inst = make_random_instance(300, 6, max_cost, 40 + max_cost);
    const auto cost = [&inst](node_id u, node_id v) { return inst.cost[u][v]; };
    for (const double share : {1.0, 0.5}) {
      for (const node_id from : {0u, 150u}) {
        std::vector<node_id> parent(300, invalid_node);
        dijkstra_into(
            inst.g, from, cost, dist, heap, [&parent](node_id v, node_id u) { parent[v] = u; },
            [&](node_id u, node_id v) { return share * cost(u, v); });
        const shortest_path_tree ref = lazy_reference_tree(inst.g, from, cost);
        SCOPED_TRACE(::testing::Message()
                     << "max_cost=" << max_cost << " share=" << share << " from=" << from);
        EXPECT_EQ(dist, ref.dist);
        EXPECT_EQ(parent, ref.parent);
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::graph
