// The dispatcher's determinism contract, exercised over real loopback
// sockets: dispatched run_batch must be bitwise identical to
// in-process run_batch for 1, 2, and 3 shards — including when a
// shard is killed mid-batch (connection severed after a few partials)
// and when a shard duplicates every partial. Failures may only move
// blocks between shards, never change results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/engine.h"
#include "api/registry.h"
#include "net/service.h"

namespace cbtc {
namespace {

using api::batch_report;
using api::dispatch_config;
using api::dynamic_batch_report;
using api::engine;
using api::lifetime_batch_report;
using api::shard_dispatcher;

/// Exact equality of summary internals.
void expect_same(const exp::summary& a, const exp::summary& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.sum_squares(), b.sum_squares()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_same(const batch_report& a, const batch_report& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.connectivity_failures, b.connectivity_failures);
  expect_same(a.edges, b.edges, "edges");
  expect_same(a.degree, b.degree, "degree");
  expect_same(a.radius, b.radius, "radius");
  expect_same(a.max_radius, b.max_radius, "max_radius");
  expect_same(a.tx_power, b.tx_power, "tx_power");
  expect_same(a.boundary, b.boundary, "boundary");
  expect_same(a.power_stretch, b.power_stretch, "power_stretch");
  expect_same(a.hop_stretch, b.hop_stretch, "hop_stretch");
  expect_same(a.interference, b.interference, "interference");
  expect_same(a.cut_vertices, b.cut_vertices, "cut_vertices");
  expect_same(a.removed_edges, b.removed_edges, "removed_edges");
}

/// A fleet of in-process servers, each on its own ephemeral loopback
/// port with its own serving thread.
class shard_fleet {
 public:
  explicit shard_fleet(const std::vector<net::serve_config>& configs) {
    for (net::serve_config cfg : configs) {
      cfg.bind_address = "127.0.0.1";
      cfg.port = 0;
      servers_.push_back(std::make_unique<net::scenario_server>(cfg));
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
      threads_.emplace_back([s = servers_.back().get()] { s->run(); });
    }
  }

  ~shard_fleet() {
    for (auto& s : servers_) s->stop();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] const std::vector<api::endpoint>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<net::scenario_server>> servers_;
  std::vector<std::thread> threads_;
  std::vector<api::endpoint> endpoints_;
};

/// Small but non-trivial scenario: several blocks, every metric on.
api::scenario_spec test_spec() {
  api::scenario_spec spec = *api::find_scenario("paper_table1");
  spec.deploy.nodes = 40;
  spec.metrics.stretch_samples = 32;
  return spec;
}

dispatch_config config_for(const shard_fleet& fleet) {
  dispatch_config cfg;
  cfg.endpoints = fleet.endpoints();
  cfg.shard_threads = 2;
  cfg.connect_timeout_ms = 2000;
  cfg.io_timeout_ms = 20000;
  cfg.backoff_base_ms = 10;
  // Small requests so multi-shard runs actually interleave and a
  // killed connection leaves work to re-dispatch.
  cfg.blocks_per_request = 1;
  return cfg;
}

TEST(ShardDispatchTest, MatchesInProcessForOneTwoAndThreeShards) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 72};  // 5 blocks (72 = 4.5 * 16)
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard_fleet fleet{std::vector<net::serve_config>(shards)};
    shard_dispatcher dispatcher(config_for(fleet));
    const batch_report dispatched = dispatcher.run_batch(spec, seeds);
    expect_same(reference, dispatched);
    EXPECT_EQ(dispatcher.stats().blocks, 5u) << shards << " shards";
    EXPECT_EQ(dispatcher.stats().connection_failures, 0u) << shards << " shards";
  }
}

TEST(ShardDispatchTest, ShardKilledMidBatchDegradesThroughputNotResults) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 72};
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  // Three shards, each severing its first connection after a single
  // partial — no done frame, exactly like a crash mid-request. The
  // batch's first request claims blocks 0-2 and is the first
  // connection of whichever shard receives it, so a kill that strands
  // claimed blocks happens however the dispatcher's workers are
  // scheduled. One kill per shard stays within max_block_retries and
  // max_endpoint_failures, so the batch must still complete.
  net::serve_config faulty;
  faulty.drop_after_partials = 1;
  faulty.drop_connections = 1;
  shard_fleet fleet({faulty, faulty, faulty});

  dispatch_config cfg = config_for(fleet);
  cfg.blocks_per_request = 3;  // a kill strands multiple claimed blocks
  shard_dispatcher dispatcher(cfg);
  const batch_report dispatched = dispatcher.run_batch(spec, seeds);
  expect_same(reference, dispatched);
  // The retry path must actually have run.
  EXPECT_GE(dispatcher.stats().connection_failures, 1u);
  EXPECT_GE(dispatcher.stats().requeued_blocks, 1u);
}

TEST(ShardDispatchTest, DuplicatePartialsAreSuppressed) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 48};  // 3 blocks
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  net::serve_config duplicating;
  duplicating.duplicate_partials = true;
  shard_fleet fleet({duplicating});
  shard_dispatcher dispatcher(config_for(fleet));
  const batch_report dispatched = dispatcher.run_batch(spec, seeds);
  expect_same(reference, dispatched);
  EXPECT_EQ(dispatcher.stats().duplicate_partials, 3u);
}

TEST(ShardDispatchTest, AllShardsDeadFailsWithBoundedRetries) {
  // Nothing listens on this port (a listener bound then destroyed).
  std::uint16_t dead_port = 0;
  {
    net::tcp_listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  dispatch_config cfg;
  cfg.endpoints = {{"127.0.0.1", dead_port}};
  cfg.connect_timeout_ms = 200;
  cfg.io_timeout_ms = 500;
  cfg.backoff_base_ms = 1;
  cfg.max_endpoint_failures = 2;
  shard_dispatcher dispatcher(cfg);
  EXPECT_THROW((void)dispatcher.run_batch(test_spec(), {0, 32}), std::runtime_error);
  EXPECT_GE(dispatcher.stats().connection_failures, 1u);
}

TEST(ShardDispatchTest, DynamicAndLifetimeBatchesMatchInProcess) {
  const api::dynamic_scenario dyn = *api::find_dynamic_scenario("mobile_churn");
  api::scenario_spec spec = dyn.scenario;
  spec.deploy.nodes = 30;
  api::sim_spec sim = dyn.sim;
  sim.horizon = std::min(sim.horizon, 40.0);
  const api::seed_range seeds{0, 20};  // 2 blocks

  const engine eng;
  shard_fleet fleet{std::vector<net::serve_config>(2)};
  shard_dispatcher dispatcher(config_for(fleet));

  const dynamic_batch_report ref_dyn = eng.run_batch(spec, sim, seeds, 2);
  const dynamic_batch_report got_dyn = dispatcher.run_batch(spec, sim, seeds);
  EXPECT_EQ(ref_dyn.runs, got_dyn.runs);
  EXPECT_EQ(ref_dyn.final_connectivity_failures, got_dyn.final_connectivity_failures);
  expect_same(ref_dyn.broadcasts, got_dyn.broadcasts, "broadcasts");
  expect_same(ref_dyn.joins, got_dyn.joins, "joins");
  expect_same(ref_dyn.repair_latency, got_dyn.repair_latency, "repair_latency");
  expect_same(ref_dyn.time_to_partition, got_dyn.time_to_partition, "time_to_partition");
  expect_same(ref_dyn.final_edges, got_dyn.final_edges, "final_edges");

  api::lifetime_spec life;
  life.battery_rounds = 20.0;
  life.flows = 10;
  life.max_rounds = 2000;
  const lifetime_batch_report ref_life = eng.run_batch(test_spec(), life, seeds, 2);
  const lifetime_batch_report got_life = dispatcher.run_batch(test_spec(), life, seeds);
  EXPECT_EQ(ref_life.runs, got_life.runs);
  expect_same(ref_life.first_death, got_life.first_death, "first_death");
  expect_same(ref_life.quarter_dead, got_life.quarter_dead, "quarter_dead");
  expect_same(ref_life.field_partition, got_life.field_partition, "field_partition");
}

TEST(ShardDispatchTest, EndpointParsing) {
  const api::endpoint ep = api::parse_endpoint("example.com:8080");
  EXPECT_EQ(ep.host, "example.com");
  EXPECT_EQ(ep.port, 8080);
  const auto list = api::parse_endpoint_list("a:1,b:2,c:3");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].host, "b");
  EXPECT_EQ(list[2].port, 3);
  EXPECT_THROW((void)api::parse_endpoint("no-port"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint("host:99999"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint_list(""), std::invalid_argument);
}

}  // namespace
}  // namespace cbtc
