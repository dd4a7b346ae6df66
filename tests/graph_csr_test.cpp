// Builder-vs-brute battery: every way a graph comes into being (the
// edge- and arc-list builders, induced subgraphs, the growth records'
// neighbor digraph, and the parallel constructions that assemble CSR
// directly) must give exactly the graph a test-local brute-force
// reference adopts through from_csr — same edges, same neighbor spans,
// same iteration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "algo/oracle.h"
#include "algo/pairwise.h"
#include "geom/spatial_order.h"
#include "geom/vec2.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

/// `m` uniformly random endpoint pairs over n nodes: duplicates,
/// reversed duplicates and self-loops all occur.
std::vector<edge> random_pairs(std::size_t n, std::size_t m, std::mt19937_64& rng) {
  std::uniform_int_distribution<node_id> pick(0, static_cast<node_id>(n - 1));
  std::vector<edge> pairs(m);
  for (edge& e : pairs) e = {pick(rng), pick(rng)};
  return pairs;
}

/// Flattens per-node sets (each already sorted and unique) into the
/// offsets / neighbors pair from_csr adopts.
std::pair<std::vector<std::size_t>, std::vector<node_id>> csr_of(
    const std::vector<std::set<node_id>>& rows) {
  std::vector<std::size_t> offsets(rows.size() + 1, 0);
  std::vector<node_id> flat;
  for (std::size_t u = 0; u < rows.size(); ++u) {
    flat.insert(flat.end(), rows[u].begin(), rows[u].end());
    offsets[u + 1] = flat.size();
  }
  return {std::move(offsets), std::move(flat)};
}

/// Reference undirected graph: a set per node, straight from the
/// definition (both directions, no self-loops).
undirected_graph brute_graph(std::size_t n, const std::vector<edge>& pairs) {
  std::vector<std::set<node_id>> rows(n);
  for (const edge& e : pairs) {
    if (e.u == e.v) continue;
    rows[e.u].insert(e.v);
    rows[e.v].insert(e.u);
  }
  auto [offsets, flat] = csr_of(rows);
  return undirected_graph::from_csr(std::move(offsets), std::move(flat));
}

/// Reference digraph: a set of out-neighbors per node, no self-loops.
digraph brute_digraph(std::size_t n, const std::vector<arc>& arcs) {
  std::vector<std::set<node_id>> rows(n);
  for (const arc& a : arcs) {
    if (a.from != a.to) rows[a.from].insert(a.to);
  }
  auto [offsets, flat] = csr_of(rows);
  return digraph::from_csr(std::move(offsets), std::move(flat));
}

std::vector<geom::vec2> random_positions(std::size_t n, double side, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(0.0, side);
  std::vector<geom::vec2> p(n);
  for (auto& q : p) q = {coord(rng), coord(rng)};
  return p;
}

void expect_identical(const undirected_graph& a, const undirected_graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(a == b);
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]) << "node " << u;
  }
  EXPECT_EQ(a.edges(), b.edges());
}

void expect_identical(const digraph& a, const digraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_TRUE(a == b);
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.out_neighbors(u);
    const auto nb = b.out_neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]) << "node " << u;
  }
}

TEST(GraphBuilders, FromEdgesMatchesBruteOnHostileLists) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 60);
    const std::vector<edge> pairs = random_pairs(n, rng() % (3 * n + 1), rng);
    const undirected_graph ref = brute_graph(n, pairs);
    expect_identical(ref, undirected_graph::from_edges(n, pairs));

    std::vector<edge> shuffled = pairs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    expect_identical(ref, undirected_graph::from_edges(n, shuffled));

    std::vector<edge> reversed;
    for (const edge& e : pairs) reversed.push_back({e.v, e.u});
    expect_identical(ref, undirected_graph::from_edges(n, reversed));

    std::vector<edge> doubled = pairs;
    doubled.insert(doubled.end(), reversed.begin(), reversed.end());
    for (node_id u = 0; u < n; u += 3) doubled.push_back({u, u});
    std::shuffle(doubled.begin(), doubled.end(), rng);
    expect_identical(ref, undirected_graph::from_edges(n, doubled));

    // The canonical edge list is a fixed point.
    expect_identical(ref, undirected_graph::from_edges(n, ref.edges()));
  }
}

TEST(GraphBuilders, FromArcsMatchesBruteOnHostileLists) {
  std::mt19937_64 rng(1776);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 60);
    std::vector<arc> arcs;
    for (const edge& e : random_pairs(n, rng() % (3 * n + 1), rng)) arcs.push_back({e.u, e.v});
    const digraph ref = brute_digraph(n, arcs);
    expect_identical(ref, digraph::from_arcs(n, arcs));
    std::vector<arc> doubled = arcs;
    doubled.insert(doubled.end(), arcs.begin(), arcs.end());
    std::shuffle(doubled.begin(), doubled.end(), rng);
    expect_identical(ref, digraph::from_arcs(n, doubled));
  }
}

TEST(GraphBuilders, HasEdgeAndInducedMatchBruteFilter) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 50);
    const std::vector<edge> pairs = random_pairs(n, 2 * n, rng);
    const undirected_graph g = undirected_graph::from_edges(n, pairs);
    std::set<std::pair<node_id, node_id>> have;
    for (const edge& e : pairs) {
      if (e.u == e.v) continue;
      have.insert({e.u, e.v});
      have.insert({e.v, e.u});
    }
    for (node_id u = 0; u < n + 2; ++u) {
      for (node_id v = 0; v < n + 2; ++v) EXPECT_EQ(g.has_edge(u, v), have.count({u, v}) == 1);
    }
    // Masks shorter than, equal to and longer than the node count.
    std::vector<bool> mask(rng() % (n + 3));
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng() % 2 == 0;
    const auto kept = [&](node_id u) { return u < mask.size() && mask[u]; };
    std::vector<edge> survivors;
    for (const edge& e : pairs) {
      if (kept(e.u) && kept(e.v)) survivors.push_back(e);
    }
    expect_identical(brute_graph(n, survivors), g.induced(mask));
  }
}

TEST(CsrGraph, FromCsrEmptyAndIsolatedNodes) {
  const undirected_graph g =
      undirected_graph::from_csr(std::vector<std::size_t>(6, 0), {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_FALSE(g.has_edge(0, 1));
  expect_identical(g, undirected_graph::from_edges(5, {}));
}

TEST(GraphBuilders, NeighborDigraphIsTheGrowthRecordsArcSet) {
  std::mt19937_64 rng(20010826);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 40 + rng() % 80;
    const std::vector<geom::vec2> pos = random_positions(n, 1000.0, rng);
    const radio::power_model pm(2.0, 300.0);
    const algo::cbtc_result growth = algo::run_cbtc(pos, pm, {});
    std::vector<arc> arcs;
    for (node_id u = 0; u < n; ++u) {
      for (const algo::neighbor_record& r : growth.nodes[u].neighbors) arcs.push_back({u, r.id});
    }
    expect_identical(brute_digraph(n, arcs), growth.neighbor_digraph());
  }
  // Records in any order, repeated or naming the node itself still give
  // the arc set (the semantics of inserting arcs one at a time).
  algo::cbtc_result hand;
  hand.nodes.resize(4);
  for (const node_id v : {3u, 1u, 3u, 0u, 2u}) hand.nodes[0].neighbors.push_back({.id = v});
  for (const node_id v : {0u, 0u}) hand.nodes[2].neighbors.push_back({.id = v});
  expect_identical(digraph::from_arcs(4, {{0, 1}, {0, 2}, {0, 3}, {2, 0}}),
                   hand.neighbor_digraph());
}

/// Test-local O(n^2) reference for the closure (`both` false: u->v or
/// v->u) and the core (`both` true: u->v and v->u), straight from the
/// definitions over has_arc.
undirected_graph reference_symmetrization(const digraph& d, bool both) {
  std::vector<edge> kept;
  for (node_id u = 0; u < d.num_nodes(); ++u) {
    for (node_id v = u + 1; v < d.num_nodes(); ++v) {
      const bool uv = d.has_arc(u, v);
      const bool vu = d.has_arc(v, u);
      if (both ? uv && vu : uv || vu) kept.push_back({u, v});
    }
  }
  return brute_graph(d.num_nodes(), kept);
}

TEST(CsrDigraph, ClosureAndCoreMatchDefinitionAtAnyWidth) {
  std::mt19937_64 rng(20010601);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 80);
    std::vector<arc> arcs;
    for (const edge& e : random_pairs(n, n * n / 10, rng)) arcs.push_back({e.u, e.v});
    const digraph d = digraph::from_arcs(n, arcs);
    const undirected_graph closure = reference_symmetrization(d, false);
    const undirected_graph core = reference_symmetrization(d, true);
    for (const unsigned width : {1u, 3u, 4u}) {
      util::thread_pool pool(width);
      expect_identical(closure, d.symmetric_closure(pool));
      expect_identical(core, d.symmetric_core(pool));
    }
  }
}

TEST(CsrGraph, PairwiseRemovalIdenticalAtAnyWidth) {
  std::mt19937_64 rng(424242);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 60 + rng() % 60;
    const std::vector<geom::vec2> pos = random_positions(n, 900.0, rng);
    const undirected_graph g = build_max_power_graph_brute(pos, 320.0);
    const algo::pairwise_options opts{.remove_all = trial % 2 == 0};
    // Oracle: Definition 3.5 applied edge by edge.
    std::size_t redundant = 0;
    for (const edge& e : g.edges()) redundant += algo::is_redundant_edge(g, pos, e.u, e.v) ? 1 : 0;
    const algo::pairwise_result ref = algo::apply_pairwise_removal(g, pos, opts);
    EXPECT_EQ(ref.redundant_edges, redundant);
    for (const unsigned width : {1u, 3u, 4u}) {
      util::thread_pool pool(width);
      const algo::pairwise_result wide = algo::apply_pairwise_removal(g, pos, opts, pool);
      EXPECT_EQ(ref.redundant_edges, wide.redundant_edges) << "width " << width;
      EXPECT_EQ(ref.removed_edges, wide.removed_edges) << "width " << width;
      expect_identical(ref.topology, wide.topology);
    }
  }
}

TEST(CsrGraph, MaxPowerGraphMatchesBruteAtAnyWidth) {
  std::mt19937_64 rng(5150);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 50 + rng() % 150;
    const std::vector<geom::vec2> pos = random_positions(n, 1200.0, rng);
    const radio::power_model pm(2.0, 400.0);
    const radio::link_model shadowed(
        pm, radio::propagation_model::lognormal_shadowing(4.0, 8.0, 77 + trial));
    const undirected_graph brute = build_max_power_graph_brute(pos, 400.0);
    const undirected_graph brute_shadowed = build_max_power_graph_brute(pos, shadowed);
    for (const unsigned width : {1u, 3u, 4u}) {
      util::thread_pool pool(width);
      expect_identical(brute, build_max_power_graph(pos, pm, pool));
      expect_identical(brute_shadowed, build_max_power_graph(pos, shadowed, pool));
    }
  }
}

TEST(SpatialOrder, PermutationIsValidAndSpatiallyCoherent) {
  std::mt19937_64 rng(8);
  const std::vector<geom::vec2> pos = random_positions(500, 3000.0, rng);
  const std::vector<std::uint32_t> perm = geom::spatial_order(pos, 400.0);
  ASSERT_EQ(perm.size(), pos.size());
  std::vector<bool> seen(pos.size(), false);
  for (const std::uint32_t id : perm) {
    ASSERT_LT(id, pos.size());
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
  // Consecutive new ids should be far closer on average than random
  // pairs: a weak but robust locality assertion.
  double ordered = 0.0;
  double shuffled = 0.0;
  for (std::size_t k = 1; k < perm.size(); ++k) {
    ordered += geom::distance(pos[perm[k - 1]], pos[perm[k]]);
    shuffled += geom::distance(pos[k - 1], pos[k]);
  }
  EXPECT_LT(ordered, 0.5 * shuffled);
  // Degenerate cells fall back to the identity.
  const std::vector<std::uint32_t> identity = geom::spatial_order(pos, 0.0);
  for (std::size_t k = 0; k < identity.size(); ++k) EXPECT_EQ(identity[k], k);
}

}  // namespace
}  // namespace cbtc::graph
