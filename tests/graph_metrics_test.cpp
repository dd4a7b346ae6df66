#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <algorithm>
#include <numeric>
#include <random>

#include "algo/pipeline.h"
#include "geom/random_points.h"
#include "geom/spatial_order.h"
#include "graph/euclidean.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

TEST(AverageDegree, HandshakeLemma) {
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0 * 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(average_degree(undirected_graph::from_edges(0, {})), 0.0);
}

TEST(NodeRadius, FarthestNeighbor) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 300.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 1), 100.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 2), 300.0);
}

TEST(NodeRadius, IsolatedUsesFallback) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  const undirected_graph g = undirected_graph::from_edges(2, {});
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0, 500.0), 500.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 0.0);
}

TEST(AverageRadius, MeanOfNodeRadii) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(average_radius(g, pts), (300.0 + 100.0 + 300.0) / 3.0);
}

TEST(MaxRadius, LargestAnywhere) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(max_radius(g, pts), 300.0);
}

TEST(DegreeHistogram, CountsPerDegree) {
  const undirected_graph g = undirected_graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 4u);  // max degree 3
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_EQ(h[3], 1u);
}

TEST(AveragePower, QuadraticCost) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  const undirected_graph g = undirected_graph::from_edges(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(average_power(g, pts, 2.0), 100.0);
  EXPECT_DOUBLE_EQ(average_power(g, pts, 3.0), 1000.0);
}

// ----------------------------------------------------------- dijkstra

TEST(Dijkstra, PowerCostPrefersRelaying) {
  // Quadratic cost makes two 100-hops (2 * 100^2) cheaper than one
  // 200-hop (200^2) — the paper's motivation for topology control.
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}};
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto d = dijkstra(g, 0, power_cost(pts, 2.0));
  EXPECT_DOUBLE_EQ(d[2], 2.0 * 100.0 * 100.0);
}

TEST(Dijkstra, EuclideanCostPrefersDirect) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 50}, {200, 0}};
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto d = dijkstra(g, 0, euclidean_cost(pts));
  EXPECT_DOUBLE_EQ(d[2], 200.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const undirected_graph g = undirected_graph::from_edges(3, {{0, 1}});
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
  const undirected_graph dense = undirected_graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const undirected_graph sparse = undirected_graph::from_edges(3, {{0, 1}, {1, 2}});
  const auto s = hop_stretch(sparse, dense, 3);
  EXPECT_GT(s.max, 1.0);
  EXPECT_GE(s.mean, 1.0);
}

TEST(Stretch, PowerStretchCanBeBelowOneNever) {
  // The sparse graph is a subgraph, so its optimal routes can never be
  // cheaper; stretch >= 1 always.
  const std::vector<geom::vec2> pts{{0, 0}, {80, 10}, {160, -10}, {240, 0}, {120, 90}};
  const auto dense = build_max_power_graph(pts, radio::power_model(2.0, 200.0));
  const undirected_graph sparse = undirected_graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
  const auto s = power_stretch(sparse, dense, pts, 2.0, 5);
  EXPECT_GE(s.mean, 1.0 - 1e-12);
  EXPECT_GE(s.max, s.mean);
}

TEST(Stretch, EmptyGraphsYieldDefaults) {
  const std::vector<geom::vec2> pts;
  const auto s = power_stretch(undirected_graph(), undirected_graph(), pts, 2.0);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_EQ(s.pairs, 0u);
}

// ------------------------------------------------- pooled stretch sampler

/// The stretch fold written out one source at a time over the generic
/// dijkstra() / bfs_distances(): the reference the pooled sampler must
/// match bit for bit.
stretch_stats reference_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                                const std::vector<geom::vec2>& pts, std::size_t samples,
                                bool hops) {
  const auto row = [&](const undirected_graph& g, node_id s) {
    if (!hops) return dijkstra(g, s, power_cost(pts, 2.0));
    std::vector<double> out;
    for (const std::uint32_t h : bfs_distances(g, s)) {
      out.push_back(h == std::numeric_limits<std::uint32_t>::max()
                        ? std::numeric_limits<double>::infinity()
                        : static_cast<double>(h));
    }
    return out;
  };
  stretch_stats stats;
  const std::size_t n = dense.num_nodes();
  const std::size_t step = std::max<std::size_t>(1, n / std::min(samples, n));
  double total = 0.0;
  double worst = 1.0;
  std::size_t pairs = 0;
  for (node_id s = 0; s < n; s = static_cast<node_id>(s + step)) {
    const std::vector<double> dd = row(dense, s);
    const std::vector<double> ds = row(sparse, s);
    for (node_id t = 0; t < n; ++t) {
      if (t == s || !std::isfinite(dd[t]) || dd[t] <= 0.0 || !std::isfinite(ds[t])) continue;
      total += ds[t] / dd[t];
      worst = std::max(worst, ds[t] / dd[t]);
      ++pairs;
    }
  }
  if (pairs > 0) stats = {total / static_cast<double>(pairs), worst, pairs};
  return stats;
}

void expect_bitwise_equal(const stretch_stats& a, const stretch_stats& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.pairs, b.pairs);
}

/// power_stretch and hop_stretch at pool width 1 and 4 against the
/// one-source-at-a-time reference; returns the width-1 power stats.
stretch_stats expect_width_invariant(const undirected_graph& sparse, const undirected_graph& dense,
                                     const std::vector<geom::vec2>& pts, std::size_t samples) {
  util::thread_pool wide(4);
  const stretch_stats p1 = power_stretch(sparse, dense, pts, 2.0, samples, util::serial_pool());
  const stretch_stats p4 = power_stretch(sparse, dense, pts, 2.0, samples, wide);
  const stretch_stats h1 = hop_stretch(sparse, dense, samples, util::serial_pool());
  const stretch_stats h4 = hop_stretch(sparse, dense, samples, wide);
  expect_bitwise_equal(p1, p4);
  expect_bitwise_equal(h1, h4);
  expect_bitwise_equal(p1, reference_stretch(sparse, dense, pts, samples, false));
  expect_bitwise_equal(h1, reference_stretch(sparse, dense, pts, samples, true));
  return p1;
}

/// A CBTC topology and its G_R over `n` uniform nodes at the paper's
/// density (100 nodes per 1500 x 1500).
struct stretch_instance {
  std::vector<geom::vec2> pts;
  undirected_graph dense;
  undirected_graph sparse;
};

stretch_instance make_stretch_instance(std::size_t n, std::uint64_t seed) {
  const radio::power_model pm(2.0, 500.0);
  stretch_instance inst;
  const double side = 1500.0 * std::sqrt(static_cast<double>(n) / 100.0);
  inst.pts = geom::uniform_points(n, geom::bbox::rect(side, side), seed);
  inst.dense = build_max_power_graph(inst.pts, pm);
  inst.sparse = algo::build_topology(inst.pts, pm, {}, algo::optimization_set::all()).topology;
  return inst;
}

TEST(PooledStretch, WidthOneAndFourBitwiseEqualOnRandomInstance) {
  const stretch_instance inst = make_stretch_instance(2000, 5);
  const stretch_stats s = expect_width_invariant(inst.sparse, inst.dense, inst.pts, 8);
  EXPECT_GT(s.pairs, 0u);
  EXPECT_GT(s.max, 1.0);
  // Twenty sources run as several waves at width 4; the fold still
  // crosses wave boundaries in source order.
  expect_width_invariant(inst.sparse, inst.dense, inst.pts, 20);
}

TEST(PooledStretch, DisconnectedTopologySkipsUnreachablePairs) {
  // Cut every edge of a few nodes out of the topology: G_R still
  // reaches them, the topology does not, so their pairs are skipped.
  stretch_instance inst = make_stretch_instance(400, 9);
  std::vector<bool> kept(inst.pts.size(), true);
  for (node_id u = 0; u < inst.pts.size(); u += 37) kept[u] = false;
  inst.sparse = inst.sparse.induced(kept);
  ASSERT_GT(connected_components(inst.sparse).count, connected_components(inst.dense).count);
  const stretch_stats s = expect_width_invariant(inst.sparse, inst.dense, inst.pts, 8);
  const stretch_stats whole = power_stretch(inst.dense, inst.dense, inst.pts, 2.0, 8);
  EXPECT_LT(s.pairs, whole.pairs);
  EXPECT_GT(s.pairs, 0u);
}

TEST(PooledStretch, HundredNodesAtEightSamplesRunNineSources) {
  // step = 100 / 8 = 12 samples sources 0, 12, ..., 96: nine of them,
  // one more than asked. The recorded benchmark outputs depend on it.
  const stretch_instance inst = make_stretch_instance(100, 3);
  ASSERT_EQ(connected_components(inst.dense).count, 1u);
  const stretch_stats s = expect_width_invariant(inst.sparse, inst.dense, inst.pts, 8);
  EXPECT_EQ(s.pairs, 9u * 99u);
  EXPECT_EQ(hop_stretch(inst.sparse, inst.dense, 8).pairs, 9u * 99u);
}

/// `g` with node u renamed label_of[u].
undirected_graph relabeled(const undirected_graph& g, const std::vector<std::uint32_t>& label_of) {
  std::vector<edge> edges;
  for (const edge& e : g.edges()) edges.push_back({label_of[e.u], label_of[e.v]});
  return undirected_graph::from_edges(g.num_nodes(), edges);
}

/// Stretch over relabeled graphs and positions, read back through
/// `label_of`, is the original-label statistic bit for bit, at pool
/// widths 1 and 4, sampled and all-pairs.
void expect_label_invisible(const stretch_instance& inst,
                            const std::vector<std::uint32_t>& label_of) {
  const std::size_t n = inst.pts.size();
  std::vector<geom::vec2> rpos(n);
  for (std::size_t u = 0; u < n; ++u) rpos[label_of[u]] = inst.pts[u];
  const undirected_graph rsparse = relabeled(inst.sparse, label_of);
  const undirected_graph rdense = relabeled(inst.dense, label_of);
  util::thread_pool wide(4);
  for (const std::size_t samples : {std::size_t{8}, std::size_t{20}, n}) {
    SCOPED_TRACE(::testing::Message() << "samples=" << samples);
    const stretch_stats p = power_stretch(inst.sparse, inst.dense, inst.pts, 2.0, samples);
    const stretch_stats h = hop_stretch(inst.sparse, inst.dense, samples);
    EXPECT_GT(p.pairs, 0u);
    for (util::thread_pool* pool : {&util::serial_pool(), &wide}) {
      expect_bitwise_equal(p, power_stretch(rsparse, rdense, rpos, 2.0, samples, *pool, label_of));
      expect_bitwise_equal(h, hop_stretch(rsparse, rdense, samples, *pool, label_of));
    }
  }
}

TEST(PooledStretch, RelabeledGraphsFoldInOriginalIds) {
  const stretch_instance inst = make_stretch_instance(500, 13);
  const std::size_t n = inst.pts.size();
  // The engine's Morton order (label k is original node perm[k]) ...
  const std::vector<std::uint32_t> perm = geom::spatial_order(inst.pts, 500.0);
  std::vector<std::uint32_t> morton(n);
  for (std::size_t k = 0; k < n; ++k) morton[perm[k]] = static_cast<std::uint32_t>(k);
  expect_label_invisible(inst, morton);
  // ... and an arbitrary shuffle.
  std::vector<std::uint32_t> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), 0u);
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(3));
  expect_label_invisible(inst, shuffled);
}

TEST(PooledStretch, ZeroSamplesMeasureNothing) {
  const stretch_instance inst = make_stretch_instance(100, 3);
  EXPECT_EQ(power_stretch(inst.sparse, inst.dense, inst.pts, 2.0, 0).pairs, 0u);
  EXPECT_EQ(hop_stretch(inst.sparse, inst.dense, 0).pairs, 0u);
}

}  // namespace
}  // namespace cbtc::graph
