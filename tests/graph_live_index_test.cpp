// The incremental live-neighbor index must be indistinguishable from a
// fresh max-power graph build: after ANY sequence of moves, crashes,
// and restarts, its edge set equals
// build_max_power_graph(positions).induced(up), and the in-place
// connectivity evaluation agrees with component analysis of that graph
// (field verdict) and with the snapshot partition comparison against a
// closure mirror (preservation verdict).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "geom/dynamic_grid.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph/traversal.h"

namespace cbtc::graph {
namespace {

constexpr double kRange = 320.0;

std::vector<geom::vec2> deployment(std::size_t n, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(1000.0, 1000.0), seed);
}

undirected_graph reference_graph(const std::vector<geom::vec2>& positions,
                                 const std::vector<bool>& up) {
  return build_max_power_graph(positions, radio::power_model(2.0, kRange)).induced(up);
}

bool reference_field_connected(const undirected_graph& gr, const std::vector<bool>& up) {
  node_id first = invalid_node;
  const component_labels comps = connected_components(gr);
  for (node_id u = 0; u < up.size(); ++u) {
    if (!up[u]) continue;
    if (first == invalid_node) {
      first = u;
    } else if (!comps.same_component(u, first)) {
      return false;
    }
  }
  return true;
}

TEST(LiveIndex, InitialBuildMatchesMaxPowerGraph) {
  const auto positions = deployment(80, 11);
  const live_neighbor_index index(positions, kRange);
  const std::vector<bool> up(positions.size(), true);
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
  EXPECT_EQ(index.live_count(), positions.size());
}

TEST(LiveIndex, CrashDropsEdgesAndRestartRestoresThem) {
  const auto positions = deployment(60, 5);
  live_neighbor_index index(positions, kRange);
  std::vector<bool> up(positions.size(), true);

  index.erase(7);
  up[7] = false;
  EXPECT_FALSE(index.is_live(7));
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
  EXPECT_TRUE(index.neighbors(7).empty());

  index.insert(7, positions[7]);
  up[7] = true;
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
}

TEST(LiveIndex, MoveAcrossTheFieldRewiresNeighborhoods) {
  const auto positions = deployment(60, 6);
  live_neighbor_index index(positions, kRange);
  std::vector<geom::vec2> current = positions;
  const std::vector<bool> up(positions.size(), true);

  // Teleport a node corner to corner, then drift it back in steps.
  current[4] = {999.0, 999.0};
  index.move(4, current[4]);
  EXPECT_EQ(index.graph(), reference_graph(current, up));
  for (int step = 0; step < 12; ++step) {
    current[4] = current[4] + geom::vec2{-80.0, -71.0};
    index.move(4, current[4]);
    EXPECT_EQ(index.graph(), reference_graph(current, up));
  }
}

/// Closure mirror seeded with every initial G_R edge plus a few
/// arbitrary arcs; it stays fixed while the index churns, so the
/// preservation verdict flips both ways along a churn script.
closure_mirror seeded_mirror(const live_neighbor_index& index, std::uint64_t seed) {
  closure_mirror mirror(index.num_nodes());
  for (node_id u = 0; u < index.num_nodes(); ++u) {
    for (const node_id v : index.neighbors(u)) {
      if (u < v) mirror.add_arc(u, v);
    }
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, index.num_nodes() - 1);
  for (int arc = 0; arc < 3; ++arc) {
    mirror.add_arc(static_cast<node_id>(pick(rng)), static_cast<node_id>(pick(rng)));
  }
  return mirror;
}

void expect_evaluation_matches_reference(const closure_mirror& mirror,
                                         const live_neighbor_index& index,
                                         const undirected_graph& expected,
                                         const std::vector<bool>& up,
                                         connectivity_scratch& scratch) {
  const connectivity_verdict v = evaluate_connectivity(mirror, index, scratch);
  EXPECT_EQ(v.field_connected, reference_field_connected(expected, up));
  EXPECT_EQ(v.preserved, same_connectivity(mirror.live_graph(), index.graph()));
}

/// The property test the tentpole asks for: random mobility / crash /
/// restart sequences, with edge-identity and evaluation agreement
/// checked after every batch of events.
TEST(LiveIndex, RandomChurnStaysEdgeIdenticalToFreshBuild) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto positions = deployment(50, 100 + seed);
    live_neighbor_index index(positions, kRange);
    closure_mirror mirror = seeded_mirror(index, seed);
    connectivity_scratch scratch;
    std::vector<geom::vec2> current = positions;
    std::vector<bool> up(positions.size(), true);

    std::mt19937_64 rng(seed * 7919 + 1);
    std::uniform_int_distribution<std::size_t> pick_node(0, positions.size() - 1);
    std::uniform_real_distribution<double> coord(-50.0, 1050.0);  // may leave the region
    std::uniform_real_distribution<double> jitter(-60.0, 60.0);
    std::uniform_int_distribution<int> pick_op(0, 9);

    for (int step = 0; step < 300; ++step) {
      const auto u = static_cast<node_id>(pick_node(rng));
      const int op = pick_op(rng);
      if (op < 6) {  // local drift (the common mobility-tick case)
        current[u] = current[u] + geom::vec2{jitter(rng), jitter(rng)};
        index.move(u, current[u]);
      } else if (op < 8) {  // teleport (waypoint arrival, big hop)
        current[u] = {coord(rng), coord(rng)};
        index.move(u, current[u]);
      } else if (up[u]) {  // crash
        index.erase(u);
        mirror.set_live(u, false);
        up[u] = false;
      } else {  // restart where the node meanwhile drifted
        index.insert(u, current[u]);
        mirror.set_live(u, true);
        up[u] = true;
      }

      if (step % 10 == 0 || step + 1 == 300) {
        const undirected_graph expected = reference_graph(current, up);
        ASSERT_EQ(index.graph(), expected) << "seed " << seed << " step " << step;
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
        expect_evaluation_matches_reference(mirror, index, expected, up, scratch);
      }
    }
  }
}

TEST(LiveIndex, EvaluationMatchesReferenceOnPureEdgeAdditions) {
  // Start fully crashed, then bring nodes up one at a time: every edge
  // arrives as an addition, and the evaluation must agree with the
  // reference at each stage — through fields that are split (fallback
  // pass) and fields the closure spans (certificate).
  const auto positions = deployment(40, 3);
  live_neighbor_index index(positions, kRange);
  closure_mirror mirror = seeded_mirror(index, 3);
  connectivity_scratch scratch;
  std::vector<bool> up(positions.size(), true);
  for (node_id u = 0; u < positions.size(); ++u) {
    index.erase(u);
    mirror.set_live(u, false);
    up[u] = false;
  }
  for (node_id u = 0; u < positions.size(); ++u) {
    index.insert(u, positions[u]);
    mirror.set_live(u, true);
    up[u] = true;
    SCOPED_TRACE(::testing::Message() << "after insert " << u);
    expect_evaluation_matches_reference(mirror, index, reference_graph(positions, up), up,
                                        scratch);
  }
}

TEST(DynamicGrid, QueriesMatchBruteForceUnderChurn) {
  const auto positions = deployment(70, 21);
  geom::dynamic_grid grid(kRange);
  std::vector<geom::vec2> current;
  std::vector<bool> present(positions.size(), false);
  for (geom::point_index i = 0; i < positions.size(); ++i) {
    grid.insert(i, positions[i]);
    present[i] = true;
    current.push_back(positions[i]);
  }

  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> pick(0, positions.size() - 1);
  std::uniform_real_distribution<double> coord(-200.0, 1200.0);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<geom::point_index>(pick(rng));
    if (step % 3 == 0 && present[i]) {
      grid.erase(i);
      present[i] = false;
    } else if (!present[i]) {
      grid.insert(i, current[i]);
      present[i] = true;
    } else {
      current[i] = {coord(rng), coord(rng)};
      grid.move(i, current[i]);
    }

    // Compare against brute force over the present points.
    const geom::vec2 center{coord(rng), coord(rng)};
    std::vector<geom::point_index> got;
    grid.query_radius_into(center, kRange, geom::spatial_grid::npos, got);
    std::sort(got.begin(), got.end());
    std::vector<geom::point_index> want;
    for (geom::point_index j = 0; j < current.size(); ++j) {
      if (present[j] && geom::distance_sq(current[j], center) <= kRange * kRange) {
        want.push_back(j);
      }
    }
    ASSERT_EQ(got, want) << "step " << step;
  }
}

}  // namespace
}  // namespace cbtc::graph
