// The dynamic-simulation layer of the cbtc::api façade: dynamic batch
// aggregates must be bitwise identical for any thread count (the same
// guarantee the static engine gives), a crashed node's neighborhood
// must repair itself within the NDP's failure-detection bound, and the
// streaming static reduction must agree with the reference reduce().
#include <gtest/gtest.h>

#include <algorithm>

#include "api/api.h"

namespace cbtc::api {
namespace {

/// Small-but-busy dynamic workload: 24 nodes under crashes, short
/// horizon so 16 seeds stay fast.
scenario_spec churn_scenario() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 24, .region_side = 1000.0};
  spec.base_seed = 1234;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;
  return spec;
}

sim_spec churn_sim() {
  sim_spec dyn;
  dyn.horizon = 30.0;
  dyn.settle = 8.0;
  dyn.sample_every = 2.0;
  dyn.beacons = {.interval = 1.0, .miss_limit = 3};
  dyn.failures = {.random_crashes = 3, .window_begin = 10.0, .window_end = 16.0};
  return dyn;
}

void expect_identical(const exp::summary& a, const exp::summary& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;  // bitwise: no tolerance
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

TEST(ApiSim, DynamicBatchAggregatesAreThreadCountInvariant) {
  const scenario_spec spec = churn_scenario();
  const sim_spec dyn = churn_sim();
  const engine eng;

  const seed_range seeds{0, 16};
  const dynamic_batch_report serial = eng.run_batch(spec, dyn, seeds, 1);
  const dynamic_batch_report parallel = eng.run_batch(spec, dyn, seeds, 4);

  ASSERT_EQ(serial.runs, 16u);
  ASSERT_EQ(parallel.runs, 16u);
  EXPECT_EQ(serial.initial_connectivity_failures, parallel.initial_connectivity_failures);
  EXPECT_EQ(serial.final_connectivity_failures, parallel.final_connectivity_failures);
  EXPECT_EQ(serial.partitioned_runs, parallel.partitioned_runs);
  EXPECT_EQ(serial.unrepaired_disruptions, parallel.unrepaired_disruptions);
  expect_identical(serial.broadcasts, parallel.broadcasts, "broadcasts");
  expect_identical(serial.unicasts, parallel.unicasts, "unicasts");
  expect_identical(serial.deliveries, parallel.deliveries, "deliveries");
  expect_identical(serial.drops, parallel.drops, "drops");
  expect_identical(serial.tx_energy, parallel.tx_energy, "tx_energy");
  expect_identical(serial.joins, parallel.joins, "joins");
  expect_identical(serial.leaves, parallel.leaves, "leaves");
  expect_identical(serial.achanges, parallel.achanges, "achanges");
  expect_identical(serial.regrows, parallel.regrows, "regrows");
  expect_identical(serial.prunes, parallel.prunes, "prunes");
  expect_identical(serial.beacons, parallel.beacons, "beacons");
  expect_identical(serial.disruptions, parallel.disruptions, "disruptions");
  expect_identical(serial.repair_latency, parallel.repair_latency, "repair_latency");
  expect_identical(serial.repair_latency_max, parallel.repair_latency_max, "repair_latency_max");
  expect_identical(serial.time_to_partition, parallel.time_to_partition, "time_to_partition");
  expect_identical(serial.final_edges, parallel.final_edges, "final_edges");
  expect_identical(serial.final_degree, parallel.final_degree, "final_degree");
  expect_identical(serial.final_radius, parallel.final_radius, "final_radius");
  expect_identical(serial.live_nodes, parallel.live_nodes, "live_nodes");
}

TEST(ApiSim, RunDynamicIsDeterministicPerSeed) {
  const scenario_spec spec = churn_scenario();
  const sim_spec dyn = churn_sim();
  const engine eng;
  const dynamic_report a = eng.run_dynamic(spec, dyn, 2);
  const dynamic_report b = eng.run_dynamic(spec, dyn, 2);
  EXPECT_EQ(a.channel.broadcasts, b.channel.broadcasts);
  EXPECT_EQ(a.channel.tx_energy, b.channel.tx_energy);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.regrows, b.regrows);
  EXPECT_EQ(a.final_topology, b.final_topology);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].edges, b.samples[i].edges) << "sample " << i;
    EXPECT_EQ(a.samples[i].connectivity_ok, b.samples[i].connectivity_ok) << "sample " << i;
  }
}

// Crash a quarter of the nodes after the topology settles: the NDP
// must notice within its failure-detection time tau = miss_limit *
// interval, the survivors must regrow around the holes, and every
// observed disruption must be repaired within tau plus one beacon of
// slack and a small regrow allowance. Several of these seeds are known
// to produce a genuine topology disruption (survivors' topology split
// while their G_R stayed whole), so the latency bound is exercised for
// real, not vacuously.
TEST(ApiSim, ReconfigRepairsCrashesWithinBeaconBound) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 24, .region_side = 1200.0};
  spec.base_seed = 97531;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.2;

  sim_spec dyn;
  dyn.horizon = 40.0;
  dyn.settle = 12.0;
  dyn.sample_every = 1.0;  // fine-grained so repair latency is sharp
  dyn.beacons = {.interval = 1.0, .miss_limit = 3};
  dyn.failures = {.random_crashes = 6, .window_begin = 14.0, .window_end = 18.0};

  // tau to notice + one beacon of slack + time to regrow the cones.
  const double bound = dyn.beacons.failure_detection_time() + dyn.beacons.interval + 5.0;

  const engine eng;
  std::uint64_t total_disruptions = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const dynamic_report r = eng.run_dynamic(spec, dyn, seed);
    EXPECT_TRUE(r.initial_connectivity_ok) << "seed " << seed;
    EXPECT_EQ(r.live_nodes, 18u) << "seed " << seed;
    EXPECT_GE(r.leaves, 1u) << "seed " << seed;  // NDP noticed the crashes
    EXPECT_TRUE(r.final_connectivity_ok) << "seed " << seed;
    EXPECT_EQ(r.unrepaired, 0u) << "seed " << seed;
    EXPECT_LE(r.repair_latency_max, bound) << "seed " << seed;
    total_disruptions += r.disruptions;
  }
  // The bound above must have been tested against real breakage.
  EXPECT_GE(total_disruptions, 1u);
}

// Section 4's partition-rejoin scenario: a node crashes, its neighbors
// drop it, it restarts — because beacon powers never fall below the
// basic algorithm's level, both sides re-discover each other and the
// rejoined node ends up wired back into the topology.
TEST(ApiSim, RestartedNodeRejoinsTopology) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 30, .region_side = 1000.0};
  spec.base_seed = 77;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.2;

  sim_spec dyn;
  dyn.horizon = 45.0;
  dyn.settle = 12.0;
  dyn.sample_every = 1.0;
  dyn.beacons = {.interval = 1.0, .miss_limit = 3};
  const graph::node_id victim = 3;
  dyn.failures.events.push_back({.node = victim, .time = 20.0, .restart = false});
  dyn.failures.events.push_back({.node = victim, .time = 28.0, .restart = true});

  const dynamic_report r = engine{}.run_dynamic(spec, dyn, 0);
  EXPECT_EQ(r.live_nodes, 30u);
  EXPECT_GE(r.leaves, 1u);
  EXPECT_TRUE(r.final_connectivity_ok);
  EXPECT_EQ(r.unrepaired, 0u);
  ASSERT_TRUE(r.up[victim]);
  EXPECT_GE(r.final_topology.degree(victim), 1u);  // wired back in
}

TEST(ApiSim, StreamingBatchMatchesReferenceReduce) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 40, .region_side = 1200.0};
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const engine eng;

  // 20 seeds spans two 16-seed streaming blocks.
  const seed_range seeds{0, 20};
  const batch_report streamed = eng.run_batch(spec, seeds, 2);
  const std::vector<run_report> all = eng.run_all(spec, seeds, 2);
  const batch_report reference = reduce(all);

  ASSERT_EQ(streamed.runs, reference.runs);
  EXPECT_EQ(streamed.connectivity_failures, reference.connectivity_failures);
  // min/max/count are order-independent, so they match bitwise; sums
  // are re-associated across blocks, so means agree to rounding only.
  EXPECT_EQ(streamed.edges.min(), reference.edges.min());
  EXPECT_EQ(streamed.edges.max(), reference.edges.max());
  EXPECT_EQ(streamed.radius.count(), reference.radius.count());
  EXPECT_NEAR(streamed.edges.mean(), reference.edges.mean(), 1e-9);
  EXPECT_NEAR(streamed.degree.mean(), reference.degree.mean(), 1e-12);
  EXPECT_NEAR(streamed.radius.mean(), reference.radius.mean(), 1e-9);
  EXPECT_NEAR(streamed.tx_power.stddev(), reference.tx_power.stddev(), 1e-6);
}

TEST(ApiSim, LifetimeOrderingMatchesPaperDiscussion) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 60, .region_side = 1200.0};
  spec.base_seed = 9;
  spec.cbtc.mode = algo::growth_mode::continuous;
  const lifetime_spec life{.battery_rounds = 30.0, .flows = 20, .max_rounds = 3000};
  const engine eng;

  scenario_spec max_power = spec;
  max_power.method = method_spec::of_baseline(baseline_kind::max_power);
  const lifetime_report no_control = eng.run_lifetime(max_power, life, 0);

  scenario_spec all_op = spec;
  all_op.opts = algo::optimization_set::all();
  const lifetime_report cbtc = eng.run_lifetime(all_op, life, 0);

  // Section 6: reduced transmit power extends the time until the field
  // partitions.
  EXPECT_GT(cbtc.field_partition, no_control.field_partition);
  EXPECT_GE(cbtc.quarter_dead, no_control.quarter_dead);
  // Determinism: same seed, same result.
  const lifetime_report again = eng.run_lifetime(all_op, life, 0);
  EXPECT_EQ(cbtc.field_partition, again.field_partition);
  EXPECT_EQ(cbtc.first_death, again.first_death);
}

}  // namespace
}  // namespace cbtc::api
