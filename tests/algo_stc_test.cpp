// Sethu-Gerety STC vs CBTC: degree / stretch / connectivity on the
// shadowed and obstacle presets, plus engine-level determinism of the
// stc method across intra-thread widths.
#include "algo/stc.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/analysis.h"
#include "api/api.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "radio/power_model.h"
#include "util/parallel.h"

namespace cbtc::algo {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

std::vector<vec2> field(std::size_t n, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(1500.0, 1500.0), seed);
}

// --------------------------------------------------- algorithm level

TEST(Stc, PreservesInvariantsUnderEveryModel) {
  util::thread_pool pool(4);
  const std::vector<radio::link_model> links{
      radio::link_model(pm),
      {pm, radio::propagation_model::lognormal_shadowing(4.0, 8.0, 17)},
      {pm, radio::propagation_model::obstacle_field(
               {{.box = {{400.0, 400.0}, {900.0, 800.0}}, .loss_db = 9.0}})},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<vec2> positions = field(100, seed);
    for (const radio::link_model& link : links) {
      const graph::priced_graph priced = graph::build_priced_max_power_graph(positions, link, pool);
      const graph::undirected_graph& c = priced.graph;
      const stc_result res = build_stc_topology(priced, pool);
      const invariant_report inv = check_invariants(res.topology, positions, link, c, pool);
      EXPECT_TRUE(inv.ok()) << "seed " << seed << ": "
                            << (inv.violations.empty() ? "" : inv.violations.front());
      // STC prunes: it never exceeds the candidate graph and should
      // shed edges on any non-trivial field.
      EXPECT_LE(res.topology.num_edges(), c.num_edges());
      EXPECT_EQ(res.kept_links + res.pruned_links, c.num_edges() * 2);
    }
  }
}

TEST(Stc, DeterministicAcrossPoolWidths) {
  const std::vector<vec2> positions = field(120, 5);
  const radio::link_model link(pm,
                               radio::propagation_model::lognormal_shadowing(4.0, 8.0, 5));
  util::thread_pool one(1);
  const stc_result ref = build_stc_topology(positions, link, one);
  for (const unsigned width : {2u, 8u}) {
    util::thread_pool pool(width);
    const stc_result got = build_stc_topology(positions, link, pool);
    EXPECT_TRUE(got.topology == ref.topology) << "width " << width;
    EXPECT_EQ(got.kept_links, ref.kept_links) << "width " << width;
    EXPECT_EQ(got.pruned_links, ref.pruned_links) << "width " << width;
  }
}

// ------------------------------------------- STC vs CBTC, via engine

TEST(Stc, ComparableToCbtcOnNonIsotropicPresets) {
  const api::engine eng;
  for (const char* preset : {"shadowed_field", "urban_obstacles"}) {
    api::scenario_spec cbtc = api::get_scenario(preset);
    api::scenario_spec stc = cbtc;
    stc.method = api::method_spec::stc();
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const api::run_report a = eng.run(cbtc, seed);
      const api::run_report b = eng.run(stc, seed);
      // Both methods must meet the paper's desiderata...
      EXPECT_TRUE(a.invariants.ok()) << preset << " cbtc seed " << seed;
      EXPECT_TRUE(b.invariants.ok()) << preset << " stc seed " << seed;
      // ...and both must actually sparsify the candidate graph.
      EXPECT_LT(a.edges, a.max_power_edges) << preset << " seed " << seed;
      EXPECT_LT(b.edges, b.max_power_edges) << preset << " seed " << seed;
      // Stretch is measured against the same G_R for both methods, so
      // finite values mean both kept every component routable.
      EXPECT_GE(a.power_stretch, 1.0);
      EXPECT_GE(b.power_stretch, 1.0);
    }
  }
}

TEST(Stc, EngineReportsBitwiseIdenticalAcrossIntraThreads) {
  const api::engine eng;
  for (const char* preset : {"shadowed_field_stc", "urban_obstacles_stc"}) {
    api::scenario_spec serial = api::get_scenario(preset);
    ASSERT_EQ(serial.method.k, api::method_spec::kind::stc) << preset;
    api::scenario_spec wide = serial;
    serial.cbtc.intra_threads = 1;
    wide.cbtc.intra_threads = 4;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      const api::run_report a = eng.run(serial, seed);
      const api::run_report b = eng.run(wide, seed);
      EXPECT_TRUE(a.topology == b.topology) << preset << " seed " << seed;
      EXPECT_EQ(a.node_powers, b.node_powers) << preset << " seed " << seed;
      EXPECT_EQ(a.edges, b.edges);
      EXPECT_EQ(a.avg_degree, b.avg_degree);
      EXPECT_EQ(a.avg_power, b.avg_power);
      EXPECT_EQ(a.power_stretch, b.power_stretch);
      EXPECT_EQ(a.hop_stretch, b.hop_stretch);
    }
  }
}

}  // namespace
}  // namespace cbtc::algo
