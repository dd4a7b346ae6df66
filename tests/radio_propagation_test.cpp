// The per-link propagation layer (radio/propagation.h) and its
// consumers, cross-checked against the pre-propagation reference path:
//
//   * isotropic link_model arithmetic is bitwise-identical to the bare
//     power_model (required power, rx power, decodability, G_R, oracle
//     growth) — the refactor must be invisible when gains are 1;
//   * shadowing gains are symmetric, reproducible, bounded by the
//     clamp, and independent of call order and thread count;
//   * obstacle gains follow segment-rectangle intersections exactly;
//   * the gain-aware max-power graph (grid) matches the O(n^2) brute
//     reference, its price column is link.required_power bit for bit
//     from either endpoint, and growth over the priced rows matches an
//     O(n^2) reference; and the live_neighbor_index maintains it exactly
//     through arbitrary churn (moves, crashes, restarts);
//   * the medium's delivery decisions and reception powers carry the
//     per-link budget, so a receiver's power estimate equals the true
//     per-link required power.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "algo/gain_removal.h"
#include "algo/oracle.h"
#include "geom/angle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph/traversal.h"
#include "radio/propagation.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace cbtc {
namespace {

using geom::vec2;

std::vector<vec2> random_field(std::size_t n, double side, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(side, side), seed);
}

radio::propagation_model shadowing(std::uint64_t seed = 7) {
  return radio::propagation_model::lognormal_shadowing(4.0, 8.0, seed);
}

radio::propagation_model two_blocks() {
  return radio::propagation_model::obstacle_field({
      {.box = {{200.0, 200.0}, {500.0, 450.0}}, .loss_db = 9.0},
      {.box = {{600.0, 500.0}, {900.0, 800.0}}, .loss_db = 6.0},
  });
}

// ---- isotropic: the refactor must be invisible ----------------------

TEST(Propagation, IsotropicLinkModelMatchesPowerModelBitwise) {
  const radio::power_model pm(2.5, 437.0);
  const radio::link_model link(pm);  // implicit isotropic propagation
  ASSERT_TRUE(link.is_isotropic());
  EXPECT_EQ(link.max_candidate_range(), pm.max_range());
  EXPECT_EQ(link.max_power(), pm.max_power());

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  for (int i = 0; i < 500; ++i) {
    const vec2 a{coord(rng), coord(rng)};
    const vec2 b{coord(rng), coord(rng)};
    const double d = geom::distance(a, b);
    const double tx = pm.required_power(coord(rng) + 1.0);
    EXPECT_EQ(link.gain(0, 1, a, b), 1.0);
    EXPECT_EQ(link.required_power(0, 1, a, b), pm.required_power(d));  // bitwise
    EXPECT_EQ(link.rx_power_at(tx, d, 0, 1, a, b), pm.rx_power(tx, d));
    EXPECT_EQ(link.reaches_at(tx, d, 0, 1, a, b), pm.reaches(tx, d));
  }
}

TEST(Propagation, IsotropicMaxPowerGraphIdenticalToDistancePath) {
  const auto positions = random_field(300, 2000.0, 41);
  const radio::link_model link(radio::power_model(2.0, 500.0));
  EXPECT_EQ(graph::build_max_power_graph(positions, link),
            graph::build_max_power_graph_brute(positions, 500.0));
  EXPECT_EQ(graph::build_max_power_graph_brute(positions, link),
            graph::build_max_power_graph_brute(positions, 500.0));
}

TEST(Propagation, IsotropicOracleGrowthBitwiseIdentical) {
  const auto positions = random_field(200, 1800.0, 5);
  const radio::power_model pm(2.0, 500.0);
  const radio::link_model link(pm);
  for (const auto mode : {algo::growth_mode::discrete, algo::growth_mode::continuous}) {
    algo::cbtc_params params;
    params.mode = mode;
    const algo::cbtc_result ref = algo::run_cbtc(positions, pm, params);
    const algo::cbtc_result via_link = algo::run_cbtc(positions, link, params);
    ASSERT_EQ(ref.nodes.size(), via_link.nodes.size());
    for (std::size_t u = 0; u < ref.nodes.size(); ++u) {
      const algo::node_result& a = ref.nodes[u];
      const algo::node_result& b = via_link.nodes[u];
      EXPECT_EQ(a.final_power, b.final_power) << "node " << u;  // bitwise
      EXPECT_EQ(a.boundary, b.boundary) << "node " << u;
      EXPECT_EQ(a.level_powers, b.level_powers) << "node " << u;
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "node " << u;
      for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "node " << u;
        EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance) << "node " << u;
        EXPECT_EQ(a.neighbors[i].discovery_power, b.neighbors[i].discovery_power) << "node " << u;
      }
    }
  }
}

// ---- shadowing gains ------------------------------------------------

TEST(Propagation, ShadowingGainIsSymmetricDeterministicAndClamped) {
  const radio::propagation_model m = shadowing();
  const double lo = std::pow(10.0, -8.0 / 10.0);
  const double hi = std::pow(10.0, 8.0 / 10.0);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint32_t> id(0, 5000);
  const vec2 p{0.0, 0.0};
  const vec2 q{10.0, 10.0};
  bool saw_non_unit = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t u = id(rng);
    const std::uint32_t v = id(rng);
    if (u == v) continue;
    const double g = m.gain(u, v, p, q);
    EXPECT_EQ(g, m.gain(v, u, q, p)) << u << "," << v;  // symmetric, bitwise
    EXPECT_EQ(g, m.gain(u, v, p, q));                   // reproducible
    EXPECT_GE(g, lo);
    EXPECT_LE(g, hi);
    EXPECT_LE(g, m.max_gain());
    if (g != 1.0) saw_non_unit = true;
  }
  EXPECT_TRUE(saw_non_unit);
  // A different seed draws a different field.
  EXPECT_NE(m.gain(1, 2, p, q), shadowing(8).gain(1, 2, p, q));
}

TEST(Propagation, ShadowingGainIndependentOfCallOrderAndThreads) {
  const radio::propagation_model m = shadowing(11);
  const vec2 p{1.0, 2.0};
  const vec2 q{3.0, 4.0};
  const std::size_t n = 4000;

  const auto collect = [&](unsigned threads, bool reversed) {
    std::vector<double> gains(n);
    util::thread_pool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) {
      const std::size_t k = reversed ? n - 1 - i : i;
      gains[k] = m.gain(static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k + 17), p, q);
    });
    return gains;
  };
  const std::vector<double> serial = collect(1, false);
  EXPECT_EQ(serial, collect(1, true));   // call order
  EXPECT_EQ(serial, collect(4, false));  // thread count
  EXPECT_EQ(serial, collect(8, true));
}

// ---- obstacle fields ------------------------------------------------

TEST(Propagation, ObstacleAttenuatesExactlyCrossingLinks) {
  const radio::propagation_model m = two_blocks();
  EXPECT_EQ(m.max_gain(), 1.0);
  const double g9 = std::pow(10.0, -9.0 / 10.0);
  const double g6 = std::pow(10.0, -6.0 / 10.0);

  // Clear line far from both rectangles.
  EXPECT_EQ(m.gain(0, 1, {0.0, 0.0}, {100.0, 0.0}), 1.0);
  // Straight through the first block.
  EXPECT_EQ(m.gain(0, 1, {100.0, 300.0}, {600.0, 300.0}), g9);
  // Endpoint inside the first block counts as crossing.
  EXPECT_EQ(m.gain(0, 1, {300.0, 300.0}, {1000.0, 300.0}), g9);
  // Diagonal through both blocks compounds the losses (dB add before
  // the single conversion, hence the exact 15 dB expectation).
  EXPECT_EQ(m.gain(0, 1, {150.0, 150.0}, {950.0, 850.0}), std::pow(10.0, -15.0 / 10.0));
  // Grazing exactly along a rectangle edge intersects (closed boxes).
  EXPECT_EQ(m.gain(0, 1, {0.0, 200.0}, {600.0, 200.0}), g9);
  // Vertical segment left of every block.
  EXPECT_EQ(m.gain(0, 1, {50.0, 0.0}, {50.0, 900.0}), 1.0);
}

TEST(Propagation, SegmentBoxIntersectionEdgeCases) {
  const geom::bbox box{{10.0, 10.0}, {20.0, 20.0}};
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 15.0}, {30.0, 15.0}));   // through
  EXPECT_TRUE(radio::segment_intersects_box(box, {15.0, 15.0}, {15.0, 15.0}));  // point inside
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 0.0}, {15.0, 15.0}));    // ends inside
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 10.0}, {30.0, 10.0}));   // along the edge
  EXPECT_TRUE(radio::segment_intersects_box(box, {5.0, 5.0}, {25.0, 25.0}));    // corner diagonal
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 0.0}, {30.0, 5.0}));    // below
  EXPECT_FALSE(radio::segment_intersects_box(box, {25.0, 0.0}, {25.0, 30.0}));  // right of it
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 25.0}, {9.0, 25.0}));   // short, above
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 21.0}, {9.0, 9.0}));    // near corner miss
}

TEST(Propagation, ObstacleValidationRejectsBadInput) {
  EXPECT_THROW(radio::propagation_model::obstacle_field(
                   {{.box = {{5.0, 0.0}, {1.0, 1.0}}, .loss_db = 3.0}}),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::obstacle_field(
                   {{.box = {{0.0, 0.0}, {1.0, 1.0}}, .loss_db = 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::lognormal_shadowing(-1.0, 8.0, 1),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::lognormal_shadowing(4.0, -1.0, 1),
               std::invalid_argument);
}

// ---- gain-aware reachability consumers ------------------------------

TEST(Propagation, MaxCandidateRangeBoundsEveryFeasibleLink) {
  const radio::link_model link(radio::power_model(2.0, 500.0), shadowing(21));
  EXPECT_GT(link.max_candidate_range(), link.max_range());  // gains can exceed 1
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> coord(0.0, 1500.0);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const vec2 a{coord(rng), coord(rng)};
    const vec2 b{coord(rng), coord(rng)};
    if (link.reaches(link.max_power(), i, i + 1, a, b)) {
      EXPECT_LE(geom::distance(a, b), link.max_candidate_range());
    }
  }
}

TEST(Propagation, GainAwareMaxPowerGraphMatchesBruteReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto positions = random_field(250, 1800.0, seed);
    const radio::link_model shadowed(radio::power_model(2.0, 500.0), shadowing(seed));
    EXPECT_EQ(graph::build_max_power_graph(positions, shadowed),
              graph::build_max_power_graph_brute(positions, shadowed));
    const radio::link_model blocked(radio::power_model(2.0, 500.0), two_blocks());
    EXPECT_EQ(graph::build_max_power_graph(positions, blocked),
              graph::build_max_power_graph_brute(positions, blocked));
  }
}

TEST(Propagation, OracleUnderShadowingIsThreadCountInvariantAndFeasible) {
  const auto positions = random_field(400, 2600.0, 17);
  const radio::link_model link(radio::power_model(2.0, 500.0), shadowing(17));
  for (const auto mode : {algo::growth_mode::discrete, algo::growth_mode::continuous}) {
    algo::cbtc_params params;
    params.mode = mode;
    params.intra_threads = 1;
    const algo::cbtc_result serial = algo::run_cbtc(positions, link, params);
    params.intra_threads = 4;
    const algo::cbtc_result parallel = algo::run_cbtc(positions, link, params);

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
    for (std::size_t u = 0; u < serial.nodes.size(); ++u) {
      EXPECT_EQ(serial.nodes[u].final_power, parallel.nodes[u].final_power) << u;
      EXPECT_EQ(serial.nodes[u].level_powers, parallel.nodes[u].level_powers) << u;
      ASSERT_EQ(serial.nodes[u].neighbors.size(), parallel.nodes[u].neighbors.size()) << u;
      for (std::size_t i = 0; i < serial.nodes[u].neighbors.size(); ++i) {
        EXPECT_EQ(serial.nodes[u].neighbors[i].id, parallel.nodes[u].neighbors[i].id) << u;
      }
      // Every discovered neighbor's link closes within the maximum
      // power, and at the node's final broadcast power.
      for (const algo::neighbor_record& rec : serial.nodes[u].neighbors) {
        const double req = link.required_power(static_cast<graph::node_id>(u), rec.id,
                                               positions[u], positions[rec.id]);
        EXPECT_LE(req, link.max_power() * (1.0 + 1e-12)) << u << "->" << rec.id;
        EXPECT_LE(req, serial.nodes[u].final_power * (1.0 + 1e-12)) << u << "->" << rec.id;
      }
    }
  }
}

// ---- the priced G_R: each link priced once ---------------------------

TEST(Propagation, ObstacleGainIsSymmetricOnCornerGrazingSegments) {
  const geom::bbox box{{300.0, 300.0}, {700.0, 650.0}};
  const radio::propagation_model m =
      radio::propagation_model::obstacle_field({{.box = box, .loss_db = 9.0}});
  const vec2 p{82.162154953285466, 693.65803357602135};
  const vec2 q{410.29777309723329, 100.67924168107766};
  // Slab clipping rounds this corner-grazing segment differently from
  // its two ends; the gain must not inherit that.
  ASSERT_NE(radio::segment_intersects_box(box, p, q), radio::segment_intersects_box(box, q, p));
  EXPECT_EQ(m.gain(0, 1, p, q), m.gain(1, 0, q, p));
  EXPECT_EQ(m.gain(0, 1, p, q), 1.0);  // clipped from node 0's end
  // Relabeling translates ids first, so the clip order is the
  // original ids' order whatever the caller's labels are.
  const radio::propagation_model swapped = m.relabeled({1, 0});
  EXPECT_EQ(swapped.gain(1, 0, p, q), 1.0);
  EXPECT_EQ(swapped.gain(0, 1, q, p), 1.0);

  // Segments aimed at the box corners, swept densely: every one must
  // price the same from both ends.
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  const vec2 corners[4] = {{300.0, 300.0}, {700.0, 300.0}, {300.0, 650.0}, {700.0, 650.0}};
  for (int i = 0; i < 20000; ++i) {
    const vec2 a{coord(rng), coord(rng)};
    const vec2 c = corners[i % 4];
    const vec2 b = c + (c - a) * (0.2 + 0.6 * (static_cast<double>(i % 7) / 7.0));
    ASSERT_EQ(m.gain(0, 1, a, b), m.gain(1, 0, b, a)) << i;
  }
}

TEST(Propagation, PricedMaxPowerGraphColumnMatchesRequiredPowerBitwise) {
  const radio::power_model pm(2.0, 500.0);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const auto positions = random_field(300, 1800.0, seed);
    const std::vector<radio::link_model> links{{pm, shadowing(seed)}, {pm, two_blocks()}};
    for (const radio::link_model& link : links) {
      const graph::undirected_graph brute = graph::build_max_power_graph_brute(positions, link);
      for (const unsigned width : {1u, 4u}) {
        util::thread_pool pool(width);
        const graph::priced_graph priced =
            graph::build_priced_max_power_graph(positions, link, pool);
        ASSERT_EQ(priced.graph, brute);
        ASSERT_EQ(priced.up_power.size(), brute.num_edges());
        for (graph::node_id u = 0; u < positions.size(); ++u) {
          std::vector<graph::node_id> visited;
          priced.any_link(u, [&](graph::node_id v, double power) {
            const double want = link.required_power(u, v, positions[u], positions[v]);
            EXPECT_EQ(power, want) << u << "-" << v;
            EXPECT_EQ(*priced.find_power(v, u), want) << u << "-" << v;
            EXPECT_EQ(link.required_power(v, u, positions[v], positions[u]), want);
            visited.push_back(v);
            return false;
          });
          const std::span<const graph::node_id> nb = priced.graph.neighbors(u);
          EXPECT_TRUE(std::equal(visited.begin(), visited.end(), nb.begin(), nb.end())) << u;
        }
        // Non-edges have no price.
        for (graph::node_id u = 0; u + 1 < positions.size(); ++u) {
          if (!brute.has_edge(u, u + 1)) {
            EXPECT_FALSE(priced.find_power(u, u + 1).has_value());
          }
        }
      }
    }
  }
}

TEST(Propagation, PricedMaxPowerGraphUnderRelabelingReadsOriginalPrices) {
  const radio::power_model pm(2.0, 500.0);
  const auto positions = random_field(250, 1600.0, 4);
  std::vector<std::uint32_t> perm(positions.size());
  for (std::uint32_t k = 0; k < perm.size(); ++k) perm[k] = (k * 97 + 13) % 250;
  std::vector<vec2> rpos(positions.size());
  for (std::size_t k = 0; k < perm.size(); ++k) rpos[k] = positions[perm[k]];
  for (const radio::link_model& link :
       {radio::link_model(pm, shadowing(4)), radio::link_model(pm, two_blocks())}) {
    const graph::priced_graph priced =
        graph::build_priced_max_power_graph(rpos, link.relabeled(perm));
    for (graph::node_id k = 0; k < rpos.size(); ++k) {
      for (const graph::node_id l : priced.graph.neighbors(k)) {
        EXPECT_EQ(*priced.find_power(k, l),
                  link.required_power(perm[k], perm[l], positions[perm[k]], positions[perm[l]]))
            << k << "-" << l;
      }
    }
  }
}

/// O(n^2) reference growth by required link power: every node whose
/// link closes at P, ordered by (required power, id) and run through
/// Figure 1 (discrete) or one admission per level (continuous). An
/// isotropic link is Figure 1 verbatim: candidates within R, ordered by
/// (distance, id), admitted while d <= range(p), and a continuous level
/// priced p(d) unclipped.
algo::cbtc_result reference_link_growth(std::span<const vec2> positions,
                                        const radio::link_model& link,
                                        const algo::cbtc_params& params) {
  struct cand {
    double req;  // sort key: distance when isotropic, required power otherwise
    graph::node_id id;
  };
  const bool isotropic = link.is_isotropic();
  const radio::power_model& pm = link.power();
  const double cap = link.max_power() * (1.0 + 1e-12);
  const double p0 = pm.required_power(link.max_range() / 16.0);
  const auto admits = [&](const cand& c, double p) {
    return isotropic ? c.req <= pm.range(p) : c.req <= p * (1.0 + 1e-12);
  };
  const auto level_power = [&](const cand& c) {
    return isotropic ? pm.required_power(c.req) : std::min(c.req, link.max_power());
  };
  algo::cbtc_result out;
  out.params = params;
  out.nodes.resize(positions.size());
  for (graph::node_id u = 0; u < positions.size(); ++u) {
    std::vector<cand> cands;
    for (graph::node_id v = 0; v < positions.size(); ++v) {
      if (v == u) continue;
      if (isotropic) {
        const double r = link.max_range();
        if (geom::distance_sq(positions[u], positions[v]) <= r * r) {
          cands.push_back({(positions[v] - positions[u]).norm(), v});
        }
        continue;
      }
      const double req = link.required_power(u, v, positions[u], positions[v]);
      if (req <= cap) cands.push_back({req, v});
    }
    std::sort(cands.begin(), cands.end(), [](const cand& a, const cand& b) {
      return a.req != b.req ? a.req < b.req : a.id < b.id;
    });
    algo::node_result& res = out.nodes[u];
    std::vector<double> dirs;
    const auto admit = [&](const cand& c, double p) {
      const vec2 d = positions[c.id] - positions[u];
      res.neighbors.push_back({c.id, d.norm(), d.bearing(),
                               static_cast<std::uint32_t>(res.level_powers.size() - 1), p});
      if (d.norm() > 0.0) dirs.push_back(d.bearing());
    };
    std::size_t next = 0;
    if (params.mode == algo::growth_mode::discrete) {
      double p = p0;
      while (p < link.max_power() && geom::has_alpha_gap(dirs, params.alpha)) {
        p = std::min(p * params.increase_factor, link.max_power());
        res.level_powers.push_back(p);
        for (; next < cands.size() && admits(cands[next], p); ++next) {
          admit(cands[next], p);
        }
      }
      res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
      res.boundary = geom::has_alpha_gap(dirs, params.alpha);
    } else {
      for (; next < cands.size() && geom::has_alpha_gap(dirs, params.alpha); ++next) {
        res.level_powers.push_back(level_power(cands[next]));
        admit(cands[next], res.level_powers.back());
      }
      res.boundary = geom::has_alpha_gap(dirs, params.alpha);
      if (res.boundary) res.level_powers.push_back(link.max_power());
      res.final_power = res.level_powers.empty() ? 0.0 : res.level_powers.back();
    }
    std::sort(res.neighbors.begin(), res.neighbors.end(),
              [](const algo::neighbor_record& a, const algo::neighbor_record& b) {
                return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
              });
  }
  return out;
}

TEST(Propagation, LinkGrowthOverPricedRowsMatchesQuadraticReference) {
  const radio::power_model pm(2.0, 500.0);
  const auto positions = random_field(220, 1700.0, 31);
  for (const radio::link_model& link : {radio::link_model(pm, shadowing(31)),
                                        radio::link_model(pm, two_blocks()),
                                        radio::link_model(pm)}) {
    for (const auto mode : {algo::growth_mode::discrete, algo::growth_mode::continuous}) {
      algo::cbtc_params params;
      params.mode = mode;
      const algo::cbtc_result want = reference_link_growth(positions, link, params);
      for (const unsigned threads : {1u, 4u}) {
        params.intra_threads = threads;
        const algo::cbtc_result got = algo::run_cbtc(positions, link, params);
        for (std::size_t u = 0; u < positions.size(); ++u) {
          const algo::node_result& a = got.nodes[u];
          const algo::node_result& b = want.nodes[u];
          SCOPED_TRACE(::testing::Message() << "node " << u << " threads " << threads);
          EXPECT_EQ(a.level_powers, b.level_powers);
          EXPECT_EQ(a.final_power, b.final_power);
          EXPECT_EQ(a.boundary, b.boundary);
          ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
          for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
            EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
            EXPECT_EQ(a.neighbors[i].level, b.neighbors[i].level);
            EXPECT_EQ(a.neighbors[i].discovery_power, b.neighbors[i].discovery_power);
            EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
          }
        }
      }
    }
  }
}

TEST(Propagation, GrowthReadsThePriceColumnOnlyUnderGains) {
  const radio::power_model pm(2.0, 500.0);
  const auto positions = random_field(150, 1500.0, 12);
  const graph::priced_graph bare{graph::build_max_power_graph(positions, pm)};
  ASSERT_FALSE(bare.has_prices());
  ASSERT_GT(bare.graph.num_edges(), 0u);
  const graph::node_id u = 0;
  ASSERT_FALSE(bare.graph.neighbors(u).empty());
  EXPECT_FALSE(bare.find_power(u, bare.graph.neighbors(u).front()).has_value());

  // Isotropic growth orders by distance and ignores a column if there is one.
  const graph::priced_graph priced = graph::build_priced_max_power_graph(positions, pm);
  ASSERT_TRUE(priced.has_prices());
  for (const auto mode : {algo::growth_mode::discrete, algo::growth_mode::continuous}) {
    algo::cbtc_params params;
    params.mode = mode;
    const algo::cbtc_result a = algo::run_cbtc(positions, pm, params, bare);
    const algo::cbtc_result b = algo::run_cbtc(positions, pm, params, priced);
    for (std::size_t v = 0; v < positions.size(); ++v) {
      EXPECT_EQ(a.nodes[v].level_powers, b.nodes[v].level_powers) << v;
      ASSERT_EQ(a.nodes[v].neighbors.size(), b.nodes[v].neighbors.size()) << v;
      for (std::size_t i = 0; i < a.nodes[v].neighbors.size(); ++i) {
        EXPECT_EQ(a.nodes[v].neighbors[i].id, b.nodes[v].neighbors[i].id) << v;
        EXPECT_EQ(a.nodes[v].neighbors[i].discovery_power,
                  b.nodes[v].neighbors[i].discovery_power) << v;
      }
    }
  }

  // Under gains, growth and the gain-aware op3 need the column.
  const radio::link_model shadowed(pm, shadowing(12));
  const graph::priced_graph shadowed_bare{graph::build_max_power_graph(positions, shadowed)};
  EXPECT_THROW((void)algo::run_cbtc(positions, shadowed, {}, shadowed_bare),
               std::invalid_argument);
  EXPECT_THROW((void)algo::apply_gain_aware_removal(shadowed_bare.graph, shadowed_bare, positions,
                                                    shadowed, {}, util::serial_pool()),
               std::invalid_argument);
}

// ---- live index under non-uniform gains -----------------------------

/// Applies a random churn script (moves, crashes, restarts) to a
/// link-aware index and checks, after every batch, that its edge set
/// equals a fresh gain-aware G_R over the surviving nodes.
void churn_identity(const radio::link_model& link) {
  const std::size_t n = 120;
  const double side = 1200.0;
  std::vector<vec2> positions = random_field(n, side, 77);
  graph::live_neighbor_index index(positions, link);
  std::vector<bool> up(n, true);

  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::uniform_int_distribution<std::uint32_t> pick(0, n - 1);
  for (int batch = 0; batch < 15; ++batch) {
    for (int ev = 0; ev < 40; ++ev) {
      const graph::node_id u = pick(rng);
      switch (rng() % 4) {
        case 0:
        case 1: {  // move (crashed nodes keep moving, like the medium)
          positions[u] = {coord(rng), coord(rng)};
          if (up[u]) {
            index.move(u, positions[u]);
          }
          break;
        }
        case 2:
          if (up[u]) {
            index.erase(u);
            up[u] = false;
          }
          break;
        default:
          if (!up[u]) {
            index.insert(u, positions[u]);
            up[u] = true;
          }
      }
    }
    // Fresh reference: gain-aware G_R over current positions, with
    // down nodes isolated.
    const graph::undirected_graph ref =
        graph::build_max_power_graph_brute(positions, link).induced(up);
    ASSERT_EQ(index.graph(), ref) << "batch " << batch;
  }
}

TEST(Propagation, LiveIndexChurnMatchesFreshRebuildUnderShadowing) {
  churn_identity(radio::link_model(radio::power_model(2.0, 400.0), shadowing(31)));
}

TEST(Propagation, LiveIndexChurnMatchesFreshRebuildUnderObstacles) {
  churn_identity(radio::link_model(radio::power_model(2.0, 400.0), two_blocks()));
}

TEST(Propagation, GainCacheHitsDominateUnderJitter) {
  // Shadowing gains are position-independent, so once a pair has been
  // filtered its gain must come from the cache forever: under small
  // per-tick jitter (mostly re-filtering known pairs) lookups grow a
  // tick at a time while misses barely move.
  const auto positions = random_field(150, 1000.0, 5);
  const radio::link_model link(radio::power_model(2.0, 400.0), shadowing(11));
  graph::live_neighbor_index index(positions, link);
  EXPECT_GT(index.gain_lookups(), 0u);

  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> jitter(-5.0, 5.0);
  std::vector<vec2> pos(positions.begin(), positions.end());
  for (int tick = 0; tick < 10; ++tick) {
    for (graph::node_id u = 0; u < pos.size(); ++u) {
      pos[u] = {pos[u].x + jitter(rng), pos[u].y + jitter(rng)};
      index.move(u, pos[u]);
    }
  }
  EXPECT_GT(index.gain_lookups(), 2 * index.gain_misses());

  // A distance index never consults the gain path at all.
  const graph::live_neighbor_index plain(positions, 400.0);
  EXPECT_EQ(plain.gain_lookups(), 0u);
}

TEST(Propagation, LiveIndexIsotropicCtorEquivalentToDistanceCtor) {
  const auto positions = random_field(200, 1500.0, 9);
  const radio::link_model link(radio::power_model(2.0, 450.0));
  graph::live_neighbor_index a(positions, link);
  graph::live_neighbor_index b(positions, 450.0);
  EXPECT_EQ(a.graph(), b.graph());
}

// ---- the medium carries the per-link budget -------------------------

TEST(Propagation, MediumDeliveryAndEstimateFollowLinkBudget) {
  // One 9 dB wall between nodes 0 and 1; node 2 is in the clear.
  const radio::power_model pm(2.0, 500.0);
  const radio::propagation_model wall = radio::propagation_model::obstacle_field(
      {{.box = {{40.0, -10.0}, {60.0, 10.0}}, .loss_db = 9.0}});
  const radio::link_model link(pm, wall);

  sim::simulator simulator;
  sim::medium medium(simulator, link);
  std::vector<sim::rx_info> at_1;
  std::vector<sim::rx_info> at_2;
  medium.add_node({0.0, 0.0}, {});
  medium.add_node({100.0, 0.0}, {});  // behind the wall
  medium.add_node({0.0, 100.0}, {});  // clear line of sight
  medium.set_handler(1, [&](const sim::rx_info& rx, const std::any&) { at_1.push_back(rx); });
  medium.set_handler(2, [&](const sim::rx_info& rx, const std::any&) { at_2.push_back(rx); });

  // Enough for 100 units in the clear, not through a 9 dB wall.
  medium.broadcast(0, pm.required_power(100.0), 0);
  simulator.run();
  EXPECT_TRUE(at_1.empty());
  ASSERT_EQ(at_2.size(), 1u);
  // The receiver's estimate reconstructs the *isotropic* requirement
  // on the clear link.
  EXPECT_NEAR(pm.estimate_required_power(at_2[0].tx_power, at_2[0].rx_power),
              pm.required_power(100.0), 1e-9);

  // Through the wall the estimate equals the gain-adjusted budget.
  const double through = link.required_power(0, 1, {0.0, 0.0}, {100.0, 0.0});
  EXPECT_GT(through, pm.required_power(100.0));
  at_2.clear();
  medium.broadcast(0, through, 0);
  simulator.run();
  ASSERT_EQ(at_1.size(), 1u);
  EXPECT_NEAR(pm.estimate_required_power(at_1[0].tx_power, at_1[0].rx_power), through,
              through * 1e-9);
}

// ---- in-place connectivity evaluation ------------------------------

/// Both verdicts recomputed from materialized snapshots.
graph::connectivity_verdict snapshot_verdict(const graph::closure_mirror& mirror,
                                             const graph::live_neighbor_index& index) {
  const graph::undirected_graph gr = index.graph();
  const graph::component_labels comps = graph::connected_components(gr);
  graph::node_id first = graph::invalid_node;
  bool field = true;
  for (graph::node_id u = 0; u < index.num_nodes(); ++u) {
    if (!index.is_live(u)) continue;
    if (first == graph::invalid_node) {
      first = u;
    } else if (!comps.same_component(u, first)) {
      field = false;
    }
  }
  return {.preserved = graph::same_connectivity(mirror.live_graph(), gr),
          .field_connected = field};
}

/// Adds one arc per edge of a BFS spanning forest of the live G_R, in
/// a random direction.
void add_spanning_forest(graph::closure_mirror& mirror, const graph::live_neighbor_index& index,
                         std::mt19937_64& rng) {
  std::vector<bool> seen(index.num_nodes(), false);
  std::vector<graph::node_id> frontier;
  for (graph::node_id root = 0; root < index.num_nodes(); ++root) {
    if (seen[root] || !index.is_live(root)) continue;
    seen[root] = true;
    frontier.assign(1, root);
    while (!frontier.empty()) {
      const graph::node_id u = frontier.back();
      frontier.pop_back();
      for (const graph::node_id v : index.neighbors(u)) {
        if (seen[v]) continue;
        seen[v] = true;
        frontier.push_back(v);
        if (rng() % 2 == 0) {
          mirror.add_arc(u, v);
        } else {
          mirror.add_arc(v, u);
        }
      }
    }
  }
}

TEST(Propagation, InPlaceMirrorConnectivityMatchesSnapshotComparison) {
  // Random mirrors + indexes; both verdicts of the in-place evaluation
  // must equal the materialized-graph comparison. Random arcs mostly
  // miss G_R (fallback path); closures grown from G_R spanning forests
  // pass the spanning certificate whenever the live field is one
  // component.
  std::mt19937_64 rng(55);
  std::size_t certified = 0;
  for (int round = 0; round < 100; ++round) {
    const bool spanning = round >= 50;
    const std::size_t n = 30;
    const auto positions = random_field(n, 900.0, 1000 + round);
    const radio::link_model link(radio::power_model(2.0, 350.0),
                                 round % 2 == 0 ? shadowing(round) : two_blocks());
    graph::live_neighbor_index index(positions, link);
    graph::closure_mirror mirror(n);
    std::uniform_int_distribution<std::uint32_t> pick(0, n - 1);
    for (int drops = 0; drops < 4; ++drops) {
      const graph::node_id u = pick(rng);
      mirror.set_live(u, false);
      index.erase(u);
    }
    if (spanning) {
      add_spanning_forest(mirror, index, rng);
      for (int arc = 0; arc < round % 4; ++arc) mirror.add_arc(pick(rng), pick(rng));
    } else {
      for (int arc = 0; arc < 80; ++arc) mirror.add_arc(pick(rng), pick(rng));
    }
    graph::connectivity_scratch scratch;
    const graph::connectivity_verdict got = graph::evaluate_connectivity(mirror, index, scratch);
    const graph::connectivity_verdict want = snapshot_verdict(mirror, index);
    EXPECT_EQ(got.preserved, want.preserved) << "round " << round;
    EXPECT_EQ(got.field_connected, want.field_connected) << "round " << round;
    if (spanning && want.preserved && want.field_connected) ++certified;
  }
  EXPECT_GT(certified, 10u);  // the certificate path was exercised
}

TEST(Propagation, StaleArcBridgingGrComponentsIsNotPreserved) {
  // Two clusters far beyond radio range of each other: G_R has two
  // components. The closure holds a spanning tree of each plus one
  // stale arc (a table entry G_R no longer has) bridging them, so the
  // closure is one component. A certificate that united closure edges
  // without checking them against G_R would call this preserved.
  const radio::link_model link(radio::power_model(2.0, 350.0));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto positions = random_field(20, 400.0, 300 + seed);
    for (std::size_t i = 10; i < positions.size(); ++i) positions[i].x += 3000.0;
    graph::live_neighbor_index index(positions, link);
    graph::closure_mirror mirror(positions.size());
    std::mt19937_64 rng(seed);
    add_spanning_forest(mirror, index, rng);
    mirror.add_arc(static_cast<graph::node_id>(seed % 10), static_cast<graph::node_id>(10 + seed % 10));

    graph::connectivity_scratch scratch;
    const graph::connectivity_verdict got = graph::evaluate_connectivity(mirror, index, scratch);
    const graph::connectivity_verdict want = snapshot_verdict(mirror, index);
    EXPECT_FALSE(want.preserved) << "seed " << seed;
    EXPECT_FALSE(want.field_connected) << "seed " << seed;
    EXPECT_EQ(got.preserved, want.preserved) << "seed " << seed;
    EXPECT_EQ(got.field_connected, want.field_connected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cbtc
