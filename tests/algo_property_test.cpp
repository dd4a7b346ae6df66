// Randomized property sweeps for the paper's theorems.
//
//   Theorem 2.1: alpha <= 5*pi/6  =>  G_alpha preserves connectivity.
//   Theorem 3.1: shrink-back (op1) preserves connectivity.
//   Theorem 3.2: alpha <= 2*pi/3  =>  E^-_alpha preserves connectivity.
//   Theorem 3.6: pairwise removal (op3) preserves connectivity.
//
// Each is exercised across node counts, densities, growth modes and
// alpha values on seeded random instances, plus the full pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "algo/analysis.h"
#include "algo/gadgets.h"
#include "algo/oracle.h"
#include "algo/pipeline.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/traversal.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

using geom::vec2;

struct sweep_case {
  std::uint64_t seed;
  std::size_t nodes;
  double region;
  double alpha;
  growth_mode mode;

  friend std::ostream& operator<<(std::ostream& os, const sweep_case& c) {
    return os << "seed=" << c.seed << " n=" << c.nodes << " region=" << c.region
              << " alpha=" << c.alpha << " mode=" << static_cast<int>(c.mode);
  }
};

std::string case_name(const ::testing::TestParamInfo<sweep_case>& info) {
  const sweep_case& c = info.param;
  std::string s = "s" + std::to_string(c.seed) + "_n" + std::to_string(c.nodes) + "_r" +
                  std::to_string(static_cast<int>(c.region)) + "_a" +
                  std::to_string(static_cast<int>(c.alpha * 100)) +
                  (c.mode == growth_mode::discrete ? "_disc" : "_cont");
  return s;
}

class ConnectivitySweep : public ::testing::TestWithParam<sweep_case> {
 protected:
  void SetUp() override {
    const sweep_case& c = GetParam();
    positions_ = geom::uniform_points(c.nodes, geom::bbox::rect(c.region, c.region), c.seed);
    gr_ = graph::build_max_power_graph(positions_, pm_);
    params_.alpha = c.alpha;
    params_.mode = c.mode;
  }

  radio::power_model pm_{2.0, 500.0};
  std::vector<vec2> positions_;
  graph::undirected_graph gr_;
  cbtc_params params_;
};

TEST_P(ConnectivitySweep, Theorem21_SymmetricClosurePreservesConnectivity) {
  const cbtc_result r = run_cbtc(positions_, pm_, params_);
  const auto g_alpha = r.symmetric_closure();
  EXPECT_TRUE(graph::same_connectivity(g_alpha, gr_)) << GetParam();
  // G_alpha is a subgraph of G_R with per-node radius <= R.
  const invariant_report rep = check_invariants(g_alpha, positions_, pm_, gr_);
  EXPECT_TRUE(rep.ok()) << GetParam() << (rep.violations.empty() ? "" : ": " + rep.violations[0]);
}

TEST_P(ConnectivitySweep, Theorem31_ShrinkBackPreservesConnectivity) {
  optimization_set opts;
  opts.shrink_back = true;
  const topology_result t = build_topology(positions_, pm_, params_, opts);
  EXPECT_TRUE(graph::same_connectivity(t.topology, gr_)) << GetParam();
}

TEST_P(ConnectivitySweep, Theorem32_SymmetricCorePreservesConnectivityForSmallAlpha) {
  if (!asymmetric_removal_applicable(GetParam().alpha)) {
    GTEST_SKIP() << "asymmetric removal requires alpha <= 2*pi/3";
  }
  const cbtc_result r = run_cbtc(positions_, pm_, params_);
  EXPECT_TRUE(graph::same_connectivity(r.symmetric_core(), gr_)) << GetParam();
}

TEST_P(ConnectivitySweep, Theorem36_PairwiseRemovalPreservesConnectivity) {
  optimization_set opts;
  opts.shrink_back = true;
  opts.pairwise_removal = true;
  const topology_result t = build_topology(positions_, pm_, params_, opts);
  EXPECT_TRUE(graph::same_connectivity(t.topology, gr_)) << GetParam();

  optimization_set all_opts;
  all_opts.shrink_back = true;
  all_opts.pairwise_removal = true;
  all_opts.pairwise.remove_all = true;
  const topology_result t_all = build_topology(positions_, pm_, params_, all_opts);
  EXPECT_TRUE(graph::same_connectivity(t_all.topology, gr_)) << GetParam();
}

TEST_P(ConnectivitySweep, FullPipelinePreservesConnectivityAndInvariants) {
  const topology_result t = build_topology(positions_, pm_, params_, optimization_set::all());
  const invariant_report rep = check_invariants(t.topology, positions_, pm_, gr_);
  EXPECT_TRUE(rep.ok()) << GetParam() << (rep.violations.empty() ? "" : ": " + rep.violations[0]);
  EXPECT_EQ(t.asymmetric_applied, asymmetric_removal_applicable(GetParam().alpha));
}

TEST_P(ConnectivitySweep, OptimizationsOnlyRemoveEdges) {
  const cbtc_result r = run_cbtc(positions_, pm_, params_);
  const auto basic = r.symmetric_closure();
  const topology_result all = build_topology(positions_, pm_, params_, optimization_set::all());
  for (const graph::edge& e : all.topology.edges()) {
    EXPECT_TRUE(basic.has_edge(e.u, e.v)) << GetParam();
  }
  EXPECT_LE(graph::average_degree(all.topology), graph::average_degree(basic) + 1e-12);
  EXPECT_LE(graph::average_radius(all.topology, positions_, pm_.max_range()),
            graph::average_radius(basic, positions_, pm_.max_range()) + 1e-9);
}

constexpr double a56 = alpha_five_pi_six;
constexpr double a23 = alpha_two_pi_three;

INSTANTIATE_TEST_SUITE_P(
    PaperWorkload, ConnectivitySweep,
    ::testing::Values(
        // The paper's evaluation shape: 100 nodes, 1500x1500, R = 500.
        sweep_case{101, 100, 1500.0, a56, growth_mode::discrete},
        sweep_case{102, 100, 1500.0, a56, growth_mode::discrete},
        sweep_case{103, 100, 1500.0, a56, growth_mode::continuous},
        sweep_case{104, 100, 1500.0, a23, growth_mode::discrete},
        sweep_case{105, 100, 1500.0, a23, growth_mode::continuous},
        // Sparse (barely connected) and dense regimes.
        sweep_case{106, 40, 1500.0, a56, growth_mode::discrete},
        sweep_case{107, 40, 1500.0, a23, growth_mode::discrete},
        sweep_case{108, 250, 1500.0, a56, growth_mode::discrete},
        sweep_case{109, 250, 1500.0, a23, growth_mode::continuous},
        // Small alpha (stronger coverage demands; op2 applies).
        sweep_case{110, 100, 1500.0, geom::pi / 2.0, growth_mode::discrete},
        sweep_case{111, 100, 1500.0, geom::pi / 3.0, growth_mode::discrete},
        // Larger field: multiple G_R components likely.
        sweep_case{112, 100, 4000.0, a56, growth_mode::discrete},
        sweep_case{113, 100, 4000.0, a23, growth_mode::discrete},
        sweep_case{114, 60, 3000.0, a56, growth_mode::continuous},
        // Tiny networks.
        sweep_case{115, 2, 600.0, a56, growth_mode::discrete},
        sweep_case{116, 5, 600.0, a56, growth_mode::discrete},
        sweep_case{117, 10, 800.0, a23, growth_mode::continuous}),
    case_name);

// Clustered, non-uniform placements stress the boundary-node paths.
class ClusteredSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteredSweep, FullPipelineOnClusteredPlacements) {
  const radio::power_model pm(2.0, 500.0);
  const auto positions =
      geom::clustered_points(120, 6, 180.0, geom::bbox::rect(2000.0, 2000.0), GetParam());
  const auto gr = graph::build_max_power_graph(positions, pm);
  for (double alpha : {a56, a23}) {
    cbtc_params params;
    params.alpha = alpha;
    const topology_result t = build_topology(positions, pm, params, optimization_set::all());
    EXPECT_TRUE(graph::same_connectivity(t.topology, gr)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteredSweep, ::testing::Range<std::uint64_t>(200, 210));

// Path-loss exponents other than 2 (the paper allows any n >= 2).
class ExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExponentSweep, ConnectivityHoldsForAnyPathLossExponent) {
  const radio::power_model pm(GetParam(), 500.0);
  const auto positions = geom::uniform_points(100, geom::bbox::rect(1500.0, 1500.0), 314);
  const auto gr = graph::build_max_power_graph(positions, pm);
  const topology_result t = build_topology(positions, pm, {}, optimization_set::all());
  EXPECT_TRUE(graph::same_connectivity(t.topology, gr));
}

INSTANTIATE_TEST_SUITE_P(Exponents, ExponentSweep, ::testing::Values(2.0, 3.0, 4.0));

// Degenerate/adversarial placements.
TEST(ConnectivityEdgeCases, CollinearNodes) {
  const radio::power_model pm(2.0, 500.0);
  std::vector<vec2> line;
  for (int i = 0; i < 20; ++i) line.push_back({i * 300.0, 0.0});
  const auto gr = graph::build_max_power_graph(line, pm);
  const topology_result t = build_topology(line, pm, {}, optimization_set::all());
  EXPECT_TRUE(graph::same_connectivity(t.topology, gr));
  EXPECT_TRUE(graph::is_connected(t.topology));  // 300 < 500: a chain
}

TEST(ConnectivityEdgeCases, CoincidentNodes) {
  const radio::power_model pm(2.0, 500.0);
  const std::vector<vec2> pts{{0, 0}, {0, 0}, {100, 0}, {100, 0}};
  const auto gr = graph::build_max_power_graph(pts, pm);
  const topology_result t = build_topology(pts, pm, {}, optimization_set::all());
  EXPECT_TRUE(graph::same_connectivity(t.topology, gr));
}

TEST(ConnectivityEdgeCases, RegularGridPlacement) {
  const radio::power_model pm(2.0, 500.0);
  const auto pts = geom::jittered_grid_points(100, 0.0, geom::bbox::rect(1500, 1500), 1);
  const auto gr = graph::build_max_power_graph(pts, pm);
  for (double alpha : {a56, a23}) {
    cbtc_params params;
    params.alpha = alpha;
    const topology_result t = build_topology(pts, pm, params, optimization_set::all());
    EXPECT_TRUE(graph::same_connectivity(t.topology, gr)) << "alpha " << alpha;
  }
}

// The tightness boundary: alpha slightly above 5*pi/6 *can* disconnect
// (gadget), while alpha = 5*pi/6 on the same layout cannot.
TEST(ConnectivityEdgeCases, ThresholdTightnessViaGadget) {
  const auto g = gadgets::make_figure5(0.05);
  const radio::power_model pm(2.0, g.max_range);
  const auto gr = graph::build_max_power_graph(g.positions, pm);

  cbtc_params above;
  above.alpha = g.alpha;
  above.mode = growth_mode::continuous;
  EXPECT_FALSE(
      graph::same_connectivity(run_cbtc(g.positions, pm, above).symmetric_closure(), gr));

  cbtc_params at;
  at.alpha = alpha_five_pi_six;
  at.mode = growth_mode::continuous;
  EXPECT_TRUE(graph::same_connectivity(run_cbtc(g.positions, pm, at).symmetric_closure(), gr));
}

// The relabeled check (G_R and a topology copy in another label space,
// as the engine's Morton pipeline holds them) must produce the report
// of the original-label check: same flags, same violations in the same
// order, naming original ids — on a healthy topology and on one with
// every kind of violation.
TEST(InvariantReport, RelabeledCheckMatchesOriginalLabels) {
  const radio::power_model pm(2.0, 500.0);
  const std::vector<vec2> pts = geom::uniform_points(300, geom::bbox::rect(2600.0, 2600.0), 41);
  const graph::undirected_graph gr = graph::build_max_power_graph(pts, pm);
  const graph::undirected_graph good =
      build_topology(pts, pm, {}, optimization_set::all()).topology;

  // Broken: drop every edge of a few nodes (partition differs) and add
  // long links outside G_R (not a subgraph, radius beyond R).
  std::vector<graph::edge> edges;
  for (const graph::edge& e : good.edges()) {
    if (e.u % 41 != 0 && e.v % 41 != 0) edges.push_back(e);
  }
  for (graph::node_id u = 1; u < 300; u += 53) {
    for (graph::node_id v = 0; v < 300; ++v) {
      if (v != u && geom::distance(pts[u], pts[v]) > 1200.0) {
        edges.push_back({u, v});
        break;
      }
    }
  }
  const graph::undirected_graph broken = graph::undirected_graph::from_edges(300, edges);

  std::vector<std::uint32_t> label_of(300);
  std::iota(label_of.begin(), label_of.end(), 0u);
  std::shuffle(label_of.begin(), label_of.end(), std::mt19937_64(5));
  const auto relabeled = [&label_of](const graph::undirected_graph& g) {
    std::vector<graph::edge> out;
    for (const graph::edge& e : g.edges()) out.push_back({label_of[e.u], label_of[e.v]});
    return graph::undirected_graph::from_edges(g.num_nodes(), out);
  };
  const graph::undirected_graph rgr = relabeled(gr);
  util::thread_pool wide(4);
  for (const graph::undirected_graph* topology : {&good, &broken}) {
    const invariant_report want = check_invariants(*topology, pts, pm, gr);
    for (util::thread_pool* pool : {&util::serial_pool(), &wide}) {
      const invariant_report got =
          check_invariants(*topology, relabeled(*topology), label_of, pts, pm, rgr, *pool);
      EXPECT_EQ(got.subgraph_of_max_power, want.subgraph_of_max_power);
      EXPECT_EQ(got.connectivity_preserved, want.connectivity_preserved);
      EXPECT_EQ(got.radii_within_max_range, want.radii_within_max_range);
      EXPECT_EQ(got.violations, want.violations);
    }
  }
  const invariant_report bad = check_invariants(broken, pts, pm, gr);
  EXPECT_FALSE(bad.subgraph_of_max_power);
  EXPECT_FALSE(bad.connectivity_preserved);
  EXPECT_FALSE(bad.radii_within_max_range);
  EXPECT_TRUE(check_invariants(good, pts, pm, gr).ok());
}

}  // namespace
}  // namespace cbtc::algo
