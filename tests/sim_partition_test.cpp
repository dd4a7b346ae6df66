// The partitioned dynamic engine's determinism contract: a dynamic
// run's report is bitwise-identical at every region count and every
// thread count — the single-queue canonical-tie simulator is the
// reference oracle, and regions {4, 16} x threads {1, 4} must
// reproduce it field for field, under uniform and lognormal-shadowed
// propagation, with boundary crossings (waypoint mobility across the
// region grid) and mid-run crashes/restarts in flight. Plus direct
// unit coverage of the conservative synchronizer itself: lookahead
// safety (no event created inside a phase below now + lookahead),
// parallel-phase telemetry, migration counting, the per-lane event
// order against the serial simulator, and the per-region churn
// counters on the live index.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "geom/vec2.h"
#include "graph/live_index.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace cbtc {
namespace {

using namespace cbtc::api;

/// Busy little field: waypoint mobility drags nodes across the region
/// grid while crashes and an explicit crash/restart pair flip liveness
/// mid-run.
scenario_spec partition_scenario() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 28, .region_side = 1000.0};
  spec.base_seed = 77;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;
  return spec;
}

sim_spec partition_sim() {
  sim_spec dyn;
  dyn.horizon = 30.0;
  dyn.settle = 8.0;
  dyn.sample_every = 2.0;
  dyn.beacons = {.interval = 1.0, .miss_limit = 3};
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 9.0};
  dyn.failures = {.random_crashes = 2, .window_begin = 10.0, .window_end = 16.0};
  dyn.failures.events.push_back({.node = 3, .time = 12.0, .restart = false});
  dyn.failures.events.push_back({.node = 3, .time = 20.0, .restart = true});
  return dyn;
}

void expect_reports_identical(const dynamic_report& a, const dynamic_report& b) {
  EXPECT_EQ(a.final_topology, b.final_topology);
  EXPECT_EQ(a.initial_connectivity_ok, b.initial_connectivity_ok);
  EXPECT_EQ(a.final_connectivity_ok, b.final_connectivity_ok);
  EXPECT_EQ(a.disruptions, b.disruptions);
  EXPECT_EQ(a.unrepaired, b.unrepaired);
  EXPECT_EQ(a.repair_latency_mean, b.repair_latency_mean);  // bitwise: no tolerance
  EXPECT_EQ(a.repair_latency_max, b.repair_latency_max);
  EXPECT_EQ(a.field_disruptions, b.field_disruptions);
  EXPECT_EQ(a.field_downtime, b.field_downtime);
  EXPECT_EQ(a.partitioned, b.partitioned);
  EXPECT_EQ(a.time_to_partition, b.time_to_partition);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.achanges, b.achanges);
  EXPECT_EQ(a.regrows, b.regrows);
  EXPECT_EQ(a.prunes, b.prunes);
  EXPECT_EQ(a.channel.broadcasts, b.channel.broadcasts);
  EXPECT_EQ(a.channel.unicasts, b.channel.unicasts);
  EXPECT_EQ(a.channel.deliveries, b.channel.deliveries);
  EXPECT_EQ(a.channel.drops, b.channel.drops);
  EXPECT_EQ(a.channel.tx_energy, b.channel.tx_energy);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].edges, b.samples[i].edges) << "sample " << i;
    EXPECT_EQ(a.samples[i].avg_degree, b.samples[i].avg_degree) << "sample " << i;
    EXPECT_EQ(a.samples[i].avg_radius, b.samples[i].avg_radius) << "sample " << i;
    EXPECT_EQ(a.samples[i].connectivity_ok, b.samples[i].connectivity_ok) << "sample " << i;
    EXPECT_EQ(a.samples[i].field_connected, b.samples[i].field_connected) << "sample " << i;
  }
}

TEST(SimPartition, ReportBitwiseIdenticalAcrossRegionAndThreadCounts) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  const engine eng;

  for (const bool shadowed : {false, true}) {
    spec.radio.propagation =
        shadowed ? propagation_spec{.kind = radio::propagation_kind::lognormal_shadowing,
                                    .sigma_db = 3.0,
                                    .clamp_db = 6.0}
                 : propagation_spec{};

    // regions = 1 forces the single-queue reference engine.
    spec.cbtc.intra_threads = 1;
    dyn.partition.regions = 1;
    const dynamic_report reference = eng.run_dynamic(spec, dyn, 5);

    for (const std::uint32_t regions : {4u, 16u}) {
      for (const unsigned threads : {1u, 4u}) {
        spec.cbtc.intra_threads = threads;
        dyn.partition.regions = regions;
        const dynamic_report partitioned = eng.run_dynamic(spec, dyn, 5);
        SCOPED_TRACE(::testing::Message() << "shadowed=" << shadowed << " regions=" << regions
                                          << " threads=" << threads);
        expect_reports_identical(reference, partitioned);
      }
    }
  }
}

/// Every registered dynamic preset must reproduce its serial report
/// bitwise when forced onto the partitioned engine (the presets cover
/// crash-recovery, attrition, shadowing, and obstacle fields; the
/// draw-free gate may route some to the reference path — identity must
/// hold either way).
TEST(SimPartition, EveryDynamicPresetBitwiseIdenticalPartitioned) {
  const engine eng;
  for (const std::string& name : dynamic_scenario_names()) {
    dynamic_scenario preset = get_dynamic_scenario(name);
    preset.scenario.cbtc.intra_threads = 1;
    preset.sim.partition.regions = 1;
    const dynamic_report serial = eng.run_dynamic(preset.scenario, preset.sim, 0);
    preset.scenario.cbtc.intra_threads = 4;
    preset.sim.partition.regions = 16;
    const dynamic_report partitioned = eng.run_dynamic(preset.scenario, preset.sim, 0);
    SCOPED_TRACE(::testing::Message() << "preset " << name);
    expect_reports_identical(serial, partitioned);
  }
}

/// Auto mode (regions = 0) below the node threshold must run the
/// serial reference — same report as an explicit regions = 1 run.
TEST(SimPartition, AutoModeBelowThresholdMatchesSerialReference) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  const engine eng;

  dyn.partition.regions = 1;
  const dynamic_report serial = eng.run_dynamic(spec, dyn, 9);
  dyn.partition.regions = 0;  // auto; 28 nodes < min_nodes => serial
  const dynamic_report automatic = eng.run_dynamic(spec, dyn, 9);
  expect_reports_identical(serial, automatic);
}

/// Direct conservative-sync coverage: handlers fan across regions on a
/// real pool, self-schedule same-instant retries, and send deliveries
/// exactly one lookahead ahead. No event may be created inside a phase
/// below now + lookahead (violations == 0), and the phase/lane
/// telemetry must add up.
TEST(SimPartition, LookaheadSafetyAndPhaseTelemetry) {
  constexpr double delta = 0.01;
  constexpr std::uint32_t kRegions = 4;
  constexpr std::size_t kNodes = 8;  // two per region
  util::thread_pool pool(4);
  sim::partitioned_simulator psim(
      kNodes, {.regions = kRegions, .lookahead = delta, .pool = &pool, .serial_batch_limit = 0});
  for (graph::node_id u = 0; u < kNodes; ++u) {
    psim.set_region(u, static_cast<std::uint32_t>(u % kRegions));
  }
  EXPECT_EQ(psim.stats().migrations, 6u);  // every u with u % 4 != 0 left region 0

  std::vector<std::uint64_t> fired(kNodes, 0);
  std::vector<std::uint64_t> tx_seq(kNodes, 0);
  // Retries fire in every region's lane at once: count them atomically.
  std::atomic<std::uint64_t> retries{0};

  // Every node ping-pongs a delivery to the node two regions over,
  // re-arming itself for a bounded number of rounds; the first firing
  // also self-schedules a same-instant retry (the stagger pattern).
  std::function<void(graph::node_id, std::size_t)> arm = [&](graph::node_id self,
                                                             std::size_t rounds) {
    psim.schedule_node(psim.now() + delta, self, [&, self, rounds] {
      ++fired[self];
      if (fired[self] == 1) {
        psim.schedule_node(psim.now(), self, [&] { ++retries; });
      }
      const auto peer = static_cast<graph::node_id>((self + 2) % kNodes);
      psim.schedule_delivery(psim.now() + delta, peer, self, tx_seq[self]++, 0,
                             [&, peer] { ++fired[peer]; });
      if (rounds > 1) arm(self, rounds - 1);
    });
  };
  for (graph::node_id u = 0; u < kNodes; ++u) arm(u, 20);
  psim.run_until(1.0);

  const sim::partition_stats& st = psim.stats();
  EXPECT_EQ(st.violations, 0u);
  EXPECT_GT(st.parallel_events, 0u);
  EXPECT_GT(st.parallel_phases, 0u);
  EXPECT_GT(st.instants, 0u);
  EXPECT_TRUE(psim.idle());
  std::uint64_t lane_total = 0;
  for (const std::uint64_t n : psim.region_events()) lane_total += n;
  EXPECT_EQ(lane_total, st.parallel_events);
  EXPECT_EQ(psim.events_processed(), st.parallel_events + st.serial_events);
  for (graph::node_id u = 0; u < kNodes; ++u) {
    EXPECT_EQ(fired[u], 40u) << "node " << u;  // 20 timer firings + 20 deliveries
  }
  EXPECT_EQ(retries.load(), kNodes);
}

/// One randomized event script, run on any scheduler. Every node keeps
/// its own RNG and label counter and touches them only from its own
/// handlers, so each node's trace is a pure function of the order in
/// which that node's events ran: any divergence from the canonical
/// order shows up in (and cascades through) the traces.
class lane_order_script {
 public:
  using trace_entry = std::array<std::uint64_t, 3>;  // kind, peer, label

  lane_order_script(sim::scheduler& s, std::size_t nodes,
                    std::function<void(graph::node_id, std::uint32_t)> migrate)
      : s_(s), migrate_(std::move(migrate)), traces_(nodes), issued_(nodes, 0), tx_seq_(nodes, 0) {
    for (std::size_t u = 0; u < nodes; ++u) rngs_.emplace_back(1000 + u);
  }

  /// Schedules the opening events from outside any handler, in
  /// scrambled order: same-instant ties across all three classes, and
  /// class-0 migrations that land between a timer's scheduling and its
  /// firing.
  void seed(std::uint64_t seed, std::uint32_t regions) {
    std::mt19937_64 rng(seed);
    const auto n = static_cast<std::uint32_t>(traces_.size());
    std::uniform_int_distribution<std::uint32_t> node(0, n - 1);
    std::uniform_int_distribution<std::uint32_t> region(0, regions - 1);
    std::uniform_int_distribution<int> instant(1, 6);
    std::vector<std::function<void()>> setup;
    for (int i = 0; i < 60; ++i) {
      const double t = instant(rng);
      const graph::node_id u = node(rng);
      switch (i % 3) {
        case 0: {
          const std::uint32_t r = region(rng);
          setup.emplace_back([this, t, u, r] {
            s_.schedule_at(t, [this, u, r] {
              global_trace_.push_back({0, u, r});
              migrate_(u, r);
            });
          });
          break;
        }
        case 1:
          setup.emplace_back([this, t, u] { arm(u, t); });
          break;
        default: {
          const graph::node_id from = node(rng);
          const std::uint64_t seq = outside_seq_++;
          setup.emplace_back([this, t, u, from, seq] { deliver(t, u, from, seq, 0); });
          break;
        }
      }
    }
    std::shuffle(setup.begin(), setup.end(), rng);
    for (const auto& f : setup) f();
  }

  [[nodiscard]] const std::vector<std::vector<trace_entry>>& traces() const { return traces_; }
  [[nodiscard]] const std::vector<trace_entry>& global_trace() const { return global_trace_; }

 private:
  static constexpr double kHorizon = 24.0;

  void arm(graph::node_id u, double t) {
    s_.schedule_node(t, u, [this, u, label = issued_[u]++] { on_timer(u, label); });
  }

  void deliver(double t, graph::node_id to, graph::node_id from, std::uint64_t seq,
               std::uint32_t copy) {
    s_.schedule_delivery(t, to, from, seq, copy,
                         [this, to, from, seq, copy] { on_delivery(to, from, seq, copy); });
  }

  void on_timer(graph::node_id u, std::uint64_t label) {
    traces_[u].push_back({1, u, label});
    std::mt19937_64& rng = rngs_[u];
    if (rng() % 3 == 0) {  // same-instant retry stagger
      s_.schedule_node(s_.now(), u, [this, u, label = issued_[u]++] {
        traces_[u].push_back({3, u, label});
      });
    }
    const auto n = static_cast<std::uint32_t>(traces_.size());
    for (int k = 0; k < 2; ++k) {
      const auto to = static_cast<graph::node_id>(rng() % n);
      const std::uint64_t seq = tx_seq_[u]++;
      const double at = s_.now() + static_cast<double>(1 + rng() % 2);
      deliver(at, to, u, seq, 0);
      if (rng() % 4 == 0) deliver(at, to, u, seq, 1);  // channel duplicate
    }
    if (s_.now() + 1.0 < kHorizon) arm(u, s_.now() + static_cast<double>(1 + rng() % 3));
  }

  void on_delivery(graph::node_id to, graph::node_id from, std::uint64_t seq, std::uint32_t copy) {
    traces_[to].push_back({2, from, seq * 2 + copy});
    std::mt19937_64& rng = rngs_[to];
    if (rng() % 5 == 0) {
      s_.schedule_node(s_.now(), to, [this, to, label = issued_[to]++] {
        traces_[to].push_back({3, to, label});
      });
    }
    if (rng() % 8 == 0 && s_.now() + 1.0 < kHorizon) arm(to, s_.now() + 1.0);
  }

  sim::scheduler& s_;
  std::function<void(graph::node_id, std::uint32_t)> migrate_;
  std::vector<std::vector<trace_entry>> traces_;
  std::vector<trace_entry> global_trace_;
  std::vector<std::mt19937_64> rngs_;
  std::vector<std::uint64_t> issued_;
  std::vector<std::uint64_t> tx_seq_;
  std::uint64_t outside_seq_{1ULL << 40};
};

/// The partitioned engine's lane order, checked directly against the
/// serial simulator: every node must run its events in exactly the
/// canonical order, across scrambled same-instant ties of all three
/// classes, migrations between a timer's scheduling and its firing,
/// and same-instant retries.
TEST(SimPartition, LaneOrderMatchesSerialSimulator) {
  constexpr std::size_t kNodes = 24;
  constexpr std::uint32_t kRegions = 4;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::simulator serial;
    lane_order_script reference(serial, kNodes, [](graph::node_id, std::uint32_t) {});
    reference.seed(seed, kRegions);
    serial.run_until(100.0);

    util::thread_pool pool(4);
    sim::partitioned_simulator psim(
        kNodes, {.regions = kRegions, .lookahead = 1.0, .pool = &pool, .serial_batch_limit = 0});
    for (graph::node_id u = 0; u < kNodes; ++u) psim.set_region(u, u % kRegions);
    lane_order_script partitioned(
        psim, kNodes, [&psim](graph::node_id u, std::uint32_t r) { psim.set_region(u, r); });
    partitioned.seed(seed, kRegions);
    psim.run_until(100.0);

    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    EXPECT_EQ(psim.stats().violations, 0u);
    EXPECT_GT(psim.stats().parallel_phases, 0u);
    EXPECT_EQ(psim.events_processed(), serial.events_processed());
    EXPECT_EQ(partitioned.global_trace(), reference.global_trace());
    for (graph::node_id u = 0; u < kNodes; ++u) {
      EXPECT_GT(reference.traces()[u].size(), 0u) << "node " << u;
      EXPECT_EQ(partitioned.traces()[u], reference.traces()[u]) << "node " << u;
    }
  }
}

/// A programmatic region count above the cap is refused before any
/// lane grid is allocated.
TEST(SimPartition, OversizedRegionCountIsRejected) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  dyn.partition.regions = 100000000;
  EXPECT_THROW((void)engine{}.run_dynamic(spec, dyn, 1), std::invalid_argument);
}

/// The serial simulator orders same-time events by their typed keys
/// (class, then owner), independent of insertion order.
TEST(SimPartition, SerialSimulatorOrdersTiesByTypedKey) {
  std::vector<int> order;
  sim::simulator s;
  s.schedule_delivery(1.0, /*to=*/5, /*from=*/0, 0, 0, [&] { order.push_back(2); });
  s.schedule_node(1.0, /*owner=*/9, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // class 0 < class 1 < class 2
}

/// Per-region churn telemetry on the live index: every move / erase /
/// insert of a live node is charged to its current region.
TEST(SimPartition, LiveIndexRegionChurnCounters) {
  const std::vector<geom::vec2> positions = {{0, 0}, {10, 0}, {500, 500}, {510, 500}};
  graph::live_neighbor_index index(positions, 50.0);
  index.set_region_map({0, 0, 1, 1}, 2);

  index.move(0, {1, 0});
  index.move(2, {501, 500});
  index.move(2, {502, 500});
  index.erase(3);
  index.move(3, {511, 500});  // down: not charged
  index.insert(3, {511, 500});

  ASSERT_EQ(index.region_churn().size(), 2u);
  EXPECT_EQ(index.region_churn()[0], 1u);
  EXPECT_EQ(index.region_churn()[1], 4u);

  index.set_node_region(0, 1);  // migrated: next churn lands in region 1
  index.move(0, {2, 0});
  EXPECT_EQ(index.region_churn()[0], 1u);
  EXPECT_EQ(index.region_churn()[1], 5u);
}

}  // namespace
}  // namespace cbtc
