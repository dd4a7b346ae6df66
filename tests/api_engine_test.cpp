// The cbtc::api façade must be a faithful front door: the engine's
// oracle and protocol methods agree on the neighbor relation (the same
// invariant tests/proto_agent_test.cpp asserts on the raw layers),
// baseline methods match direct baselines::* calls, and multi-seed
// batches reduce to bitwise-identical aggregates for any thread count.
#include <gtest/gtest.h>

#include <set>

#include "api/api.h"
#include "baselines/baselines.h"
#include "graph/euclidean.h"

namespace cbtc::api {
namespace {

std::set<graph::node_id> ids(const algo::node_result& n) {
  std::set<graph::node_id> s;
  for (const auto& rec : n.neighbors) s.insert(rec.id);
  return s;
}

/// Paper-style workload small enough for protocol simulation in tests;
/// discrete growth (what the distributed agents actually run) and a
/// reliable low-latency channel so the protocol matches the oracle.
scenario_spec parity_spec() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 60, .region_side = 1200.0};
  spec.base_seed = 42;
  spec.cbtc.mode = algo::growth_mode::discrete;
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

TEST(ApiEngine, OracleAndProtocolAgreeOnNeighborRelation) {
  scenario_spec spec = parity_spec();
  const engine eng;

  spec.method = method_spec::oracle();
  const run_report oracle = eng.run(spec);
  spec.method = method_spec::protocol();
  const run_report protocol = eng.run(spec);

  ASSERT_TRUE(oracle.has_growth);
  ASSERT_TRUE(protocol.has_growth);
  ASSERT_EQ(oracle.growth.num_nodes(), protocol.growth.num_nodes());
  for (std::size_t u = 0; u < oracle.growth.num_nodes(); ++u) {
    EXPECT_EQ(ids(oracle.growth.nodes[u]), ids(protocol.growth.nodes[u])) << "node " << u;
    EXPECT_EQ(oracle.growth.nodes[u].boundary, protocol.growth.nodes[u].boundary) << "node " << u;
  }
  EXPECT_EQ(oracle.topology, protocol.topology);
  EXPECT_TRUE(protocol.has_protocol_stats);
  EXPECT_GT(protocol.protocol_stats.broadcasts, 0u);
  EXPECT_FALSE(oracle.has_protocol_stats);
}

TEST(ApiEngine, OracleAndProtocolAgreeWithOptimizations) {
  scenario_spec spec = parity_spec();
  spec.cbtc.alpha = algo::alpha_two_pi_three;
  spec.opts = algo::optimization_set::all();
  const engine eng;

  spec.method = method_spec::oracle();
  const run_report oracle = eng.run(spec);
  spec.method = method_spec::protocol();
  const run_report protocol = eng.run(spec);

  EXPECT_EQ(oracle.topology, protocol.topology);
  EXPECT_EQ(oracle.removed_edges, protocol.removed_edges);
}

TEST(ApiEngine, BaselinesMatchDirectCalls) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 80, .region_side = 1400.0};
  spec.base_seed = 7;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const engine eng;

  const auto positions = spec.make_positions(0);
  const double R = spec.radio.max_range;

  spec.method = method_spec::of_baseline(baseline_kind::euclidean_mst);
  EXPECT_EQ(eng.run(spec).topology, baselines::euclidean_mst(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::relative_neighborhood);
  EXPECT_EQ(eng.run(spec).topology, baselines::relative_neighborhood_graph(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::gabriel);
  EXPECT_EQ(eng.run(spec).topology, baselines::gabriel_graph(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::yao);
  spec.method.yao_cones = 6;
  EXPECT_EQ(eng.run(spec).topology, baselines::yao_graph(positions, R, 6));

  spec.method = method_spec::of_baseline(baseline_kind::knn);
  spec.method.knn_k = 3;
  EXPECT_EQ(eng.run(spec).topology, baselines::knn_graph(positions, R, 3));

  spec.method = method_spec::of_baseline(baseline_kind::max_power);
  EXPECT_EQ(eng.run(spec).topology,
            graph::build_max_power_graph(positions, radio::power_model(2.0, R)));
}

TEST(ApiEngine, MaxPowerBaselineUsesNominalRadius) {
  scenario_spec spec;
  spec.deploy.nodes = 50;
  spec.method = method_spec::of_baseline(baseline_kind::max_power);
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const run_report r = engine{}.run(spec);
  EXPECT_DOUBLE_EQ(r.avg_radius, spec.radio.max_range);
  EXPECT_DOUBLE_EQ(r.max_radius, spec.radio.max_range);
  ASSERT_EQ(r.node_powers.size(), 50u);
  for (const double p : r.node_powers) EXPECT_DOUBLE_EQ(p, spec.power().max_power());
}

void expect_identical(const exp::summary& a, const exp::summary& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;       // bitwise: no tolerance
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

TEST(ApiEngine, BatchAggregatesAreThreadCountInvariant) {
  scenario_spec spec = get_scenario("paper_table1");
  spec.deploy.nodes = 40;  // keep 24 runs quick
  spec.metrics.stretch_samples = 4;
  const engine eng;

  const seed_range seeds{0, 24};
  const batch_report serial = eng.run_batch(spec, seeds, 1);
  const batch_report parallel = eng.run_batch(spec, seeds, 4);

  ASSERT_EQ(serial.runs, 24u);
  ASSERT_EQ(parallel.runs, 24u);
  EXPECT_EQ(serial.connectivity_failures, parallel.connectivity_failures);
  expect_identical(serial.edges, parallel.edges, "edges");
  expect_identical(serial.degree, parallel.degree, "degree");
  expect_identical(serial.radius, parallel.radius, "radius");
  expect_identical(serial.max_radius, parallel.max_radius, "max_radius");
  expect_identical(serial.tx_power, parallel.tx_power, "tx_power");
  expect_identical(serial.boundary, parallel.boundary, "boundary");
  expect_identical(serial.power_stretch, parallel.power_stretch, "power_stretch");
  expect_identical(serial.hop_stretch, parallel.hop_stretch, "hop_stretch");
  expect_identical(serial.interference, parallel.interference, "interference");
  expect_identical(serial.cut_vertices, parallel.cut_vertices, "cut_vertices");
  expect_identical(serial.removed_edges, parallel.removed_edges, "removed_edges");
}

TEST(ApiEngine, BatchReportsComeBackInSeedOrder) {
  scenario_spec spec;
  spec.deploy.nodes = 30;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const auto reports = engine{}.run_all(spec, {5, 6}, 3);
  ASSERT_EQ(reports.size(), 6u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].seed, 5 + i);
  }
}

TEST(ApiEngine, RunIsDeterministicPerSeed) {
  scenario_spec spec = get_scenario("paper_table1");
  spec.deploy.nodes = 40;
  const engine eng;
  const run_report a = eng.run(spec, 3);
  const run_report b = eng.run(spec, 3);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.node_powers, b.node_powers);
  EXPECT_EQ(a.avg_radius, b.avg_radius);
}

TEST(ApiEngine, FixedDeploymentIgnoresSeed) {
  scenario_spec spec;
  spec.deploy = deployment_spec::fixed_positions(
      {{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {300.0, 300.0}});
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const engine eng;
  EXPECT_EQ(eng.run(spec, 0).topology, eng.run(spec, 99).topology);
  EXPECT_EQ(eng.run(spec).nodes, 4u);
}

}  // namespace
}  // namespace cbtc::api
