// JSON scenario files: a saved scenario_spec + sim_spec must round-trip
// field for field, sparse files fall back to spec defaults, and
// malformed input (bad JSON, unknown keys, wrong types) fails loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "api/api.h"
#include "api/json.h"

namespace cbtc::api {
namespace {

scenario_file busy_file() {
  scenario_file f;
  scenario_spec& s = f.scenario;
  s.name = "round_trip";
  s.deploy = {.kind = deployment_kind::cluster,
              .nodes = 77,
              .region_side = 1234.5,
              .clusters = 3,
              .cluster_sigma = 99.5,
              .grid_jitter = 0.25};
  s.radio = {.path_loss_exponent = 4.0, .max_range = 321.0};
  s.method = method_spec::of_baseline(baseline_kind::yao);
  s.method.yao_cones = 8;
  s.cbtc.alpha = 2.0;
  s.cbtc.mode = algo::growth_mode::continuous;
  s.cbtc.initial_power = 17.5;
  s.cbtc.increase_factor = 3.0;
  s.opts = {.shrink_back = true,
            .asymmetric_removal = false,
            .pairwise_removal = true,
            .gain_aware = true};
  s.protocol.agent.round_timeout = 0.75;
  s.protocol.agent.reply_margin = 1.25;
  s.protocol.agent.retries_per_level = 4;
  s.protocol.direction_noise = 0.01;
  s.protocol.max_events = 123456;
  s.protocol.channel = {.drop_prob = 0.05,
                        .dup_prob = 0.01,
                        .base_delay = 0.02,
                        .delay_per_unit = 0.001,
                        .jitter_max = 0.03};
  s.base_seed = 0xdeadbeefcafef00dULL;  // must survive as an exact u64
  s.metrics = {.stretch = false, .stretch_samples = 5, .interference = false, .robustness = true};
  s.post.bridge_augmentation = true;

  sim_spec dyn;
  dyn.horizon = 99.0;
  dyn.settle = 11.0;
  dyn.sample_every = 3.5;
  dyn.beacons = {.interval = 0.8, .miss_limit = 5, .achange_threshold = 0.1, .shrink_back = false};
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 2.5,
                  .max_speed = 7.5,
                  .pause = 1.5,
                  .tick = 0.25,
                  .start = 10.0,
                  .until = 80.0};
  dyn.partition = {.regions = 9, .min_nodes = 2048};
  dyn.failures.random_crashes = 6;
  dyn.failures.window_begin = 15.0;
  dyn.failures.window_end = 45.0;
  dyn.failures.events.push_back({.node = 12, .time = 33.0, .restart = false});
  dyn.failures.events.push_back({.node = 12, .time = 44.0, .restart = true});
  f.sim = dyn;
  return f;
}

TEST(ApiSerialize, RoundTripPreservesEveryField) {
  const scenario_file original = busy_file();
  const scenario_file parsed = parse_scenario_json(to_json(original));

  const scenario_spec& a = original.scenario;
  const scenario_spec& b = parsed.scenario;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.deploy.kind, b.deploy.kind);
  EXPECT_EQ(a.deploy.nodes, b.deploy.nodes);
  EXPECT_DOUBLE_EQ(a.deploy.region_side, b.deploy.region_side);
  EXPECT_EQ(a.deploy.clusters, b.deploy.clusters);
  EXPECT_DOUBLE_EQ(a.deploy.cluster_sigma, b.deploy.cluster_sigma);
  EXPECT_DOUBLE_EQ(a.deploy.grid_jitter, b.deploy.grid_jitter);
  EXPECT_DOUBLE_EQ(a.radio.path_loss_exponent, b.radio.path_loss_exponent);
  EXPECT_DOUBLE_EQ(a.radio.max_range, b.radio.max_range);
  EXPECT_EQ(a.method.k, b.method.k);
  EXPECT_EQ(a.method.baseline, b.method.baseline);
  EXPECT_EQ(a.method.yao_cones, b.method.yao_cones);
  EXPECT_DOUBLE_EQ(a.cbtc.alpha, b.cbtc.alpha);
  EXPECT_EQ(a.cbtc.mode, b.cbtc.mode);
  EXPECT_DOUBLE_EQ(a.cbtc.initial_power, b.cbtc.initial_power);
  EXPECT_DOUBLE_EQ(a.cbtc.increase_factor, b.cbtc.increase_factor);
  EXPECT_EQ(a.opts.shrink_back, b.opts.shrink_back);
  EXPECT_EQ(a.opts.asymmetric_removal, b.opts.asymmetric_removal);
  EXPECT_EQ(a.opts.pairwise_removal, b.opts.pairwise_removal);
  EXPECT_EQ(a.opts.gain_aware, b.opts.gain_aware);
  EXPECT_DOUBLE_EQ(a.protocol.agent.round_timeout, b.protocol.agent.round_timeout);
  EXPECT_DOUBLE_EQ(a.protocol.agent.reply_margin, b.protocol.agent.reply_margin);
  EXPECT_EQ(a.protocol.agent.retries_per_level, b.protocol.agent.retries_per_level);
  EXPECT_DOUBLE_EQ(a.protocol.direction_noise, b.protocol.direction_noise);
  EXPECT_EQ(a.protocol.max_events, b.protocol.max_events);
  EXPECT_DOUBLE_EQ(a.protocol.channel.drop_prob, b.protocol.channel.drop_prob);
  EXPECT_DOUBLE_EQ(a.protocol.channel.dup_prob, b.protocol.channel.dup_prob);
  EXPECT_DOUBLE_EQ(a.protocol.channel.base_delay, b.protocol.channel.base_delay);
  EXPECT_DOUBLE_EQ(a.protocol.channel.delay_per_unit, b.protocol.channel.delay_per_unit);
  EXPECT_DOUBLE_EQ(a.protocol.channel.jitter_max, b.protocol.channel.jitter_max);
  EXPECT_EQ(a.base_seed, b.base_seed);
  EXPECT_EQ(a.metrics.stretch, b.metrics.stretch);
  EXPECT_EQ(a.metrics.stretch_samples, b.metrics.stretch_samples);
  EXPECT_EQ(a.metrics.interference, b.metrics.interference);
  EXPECT_EQ(a.metrics.robustness, b.metrics.robustness);
  EXPECT_EQ(a.post.bridge_augmentation, b.post.bridge_augmentation);

  ASSERT_TRUE(parsed.sim.has_value());
  const sim_spec& x = *original.sim;
  const sim_spec& y = *parsed.sim;
  EXPECT_DOUBLE_EQ(x.horizon, y.horizon);
  EXPECT_DOUBLE_EQ(x.settle, y.settle);
  EXPECT_DOUBLE_EQ(x.sample_every, y.sample_every);
  EXPECT_EQ(x.partition.regions, y.partition.regions);
  EXPECT_EQ(x.partition.min_nodes, y.partition.min_nodes);
  EXPECT_DOUBLE_EQ(x.beacons.interval, y.beacons.interval);
  EXPECT_EQ(x.beacons.miss_limit, y.beacons.miss_limit);
  EXPECT_DOUBLE_EQ(x.beacons.achange_threshold, y.beacons.achange_threshold);
  EXPECT_EQ(x.beacons.shrink_back, y.beacons.shrink_back);
  EXPECT_EQ(x.mobility.kind, y.mobility.kind);
  EXPECT_DOUBLE_EQ(x.mobility.min_speed, y.mobility.min_speed);
  EXPECT_DOUBLE_EQ(x.mobility.max_speed, y.mobility.max_speed);
  EXPECT_DOUBLE_EQ(x.mobility.pause, y.mobility.pause);
  EXPECT_DOUBLE_EQ(x.mobility.tick, y.mobility.tick);
  EXPECT_DOUBLE_EQ(x.mobility.start, y.mobility.start);
  EXPECT_DOUBLE_EQ(x.mobility.until, y.mobility.until);
  EXPECT_EQ(x.failures.random_crashes, y.failures.random_crashes);
  EXPECT_DOUBLE_EQ(x.failures.window_begin, y.failures.window_begin);
  EXPECT_DOUBLE_EQ(x.failures.window_end, y.failures.window_end);
  ASSERT_EQ(y.failures.events.size(), 2u);
  EXPECT_EQ(y.failures.events[0].node, 12u);
  EXPECT_DOUBLE_EQ(y.failures.events[0].time, 33.0);
  EXPECT_FALSE(y.failures.events[0].restart);
  EXPECT_TRUE(y.failures.events[1].restart);
}

TEST(ApiSerialize, FixedPositionsRoundTrip) {
  scenario_file f;
  f.scenario.deploy = deployment_spec::fixed_positions(
      {{0.0, 0.0}, {100.5, -3.25}, {7.0, 42.0}});
  const scenario_file parsed = parse_scenario_json(to_json(f));
  ASSERT_EQ(parsed.scenario.deploy.kind, deployment_kind::fixed);
  ASSERT_EQ(parsed.scenario.deploy.fixed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.scenario.deploy.fixed[1].x, 100.5);
  EXPECT_DOUBLE_EQ(parsed.scenario.deploy.fixed[1].y, -3.25);
  EXPECT_EQ(parsed.scenario.deploy.nodes, 3u);
  EXPECT_FALSE(parsed.sim.has_value());
}

TEST(ApiSerialize, SparseFilesFallBackToDefaults) {
  const scenario_file f = parse_scenario_json(R"({
    "scenario": {"deployment": {"nodes": 12}, "method": "gabriel"},
    "sim": {"horizon": 50}
  })");
  EXPECT_EQ(f.scenario.deploy.nodes, 12u);
  EXPECT_EQ(f.scenario.deploy.kind, deployment_kind::uniform);
  EXPECT_EQ(f.scenario.method.k, method_spec::kind::baseline);
  EXPECT_EQ(f.scenario.method.baseline, baseline_kind::gabriel);
  EXPECT_DOUBLE_EQ(f.scenario.radio.max_range, scenario_spec{}.radio.max_range);
  ASSERT_TRUE(f.sim.has_value());
  EXPECT_DOUBLE_EQ(f.sim->horizon, 50.0);
  EXPECT_DOUBLE_EQ(f.sim->settle, sim_spec{}.settle);
}

TEST(ApiSerialize, StcMethodRoundTrips) {
  // String form in, canonical object form out, stable thereafter.
  const scenario_file f = parse_scenario_json(R"({"scenario": {"method": "stc"}})");
  EXPECT_EQ(f.scenario.method.k, method_spec::kind::stc);
  const std::string json = to_json(f);
  const scenario_file again = parse_scenario_json(json);
  EXPECT_EQ(again.scenario.method.k, method_spec::kind::stc);
  EXPECT_EQ(to_json(again), json);
  // The gain_aware optimization knob rides the same round trip.
  const scenario_file g = parse_scenario_json(
      R"({"scenario": {"optimizations": {"shrink_back": true, "gain_aware": true}}})");
  EXPECT_TRUE(g.scenario.opts.gain_aware);
  EXPECT_TRUE(parse_scenario_json(to_json(g)).scenario.opts.gain_aware);
}

TEST(ApiSerialize, MalformedMethodRejected) {
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": "carrier-pigeon"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": {"name": "carrier-pigeon"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": {"typo": "stc"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": 7}})"), std::invalid_argument);
}

TEST(ApiSerialize, BareScenarioObjectIsAccepted) {
  const scenario_file f = parse_scenario_json(R"({"name": "bare", "base_seed": 5})");
  EXPECT_EQ(f.scenario.name, "bare");
  EXPECT_EQ(f.scenario.base_seed, 5u);
  EXPECT_FALSE(f.sim.has_value());
}

TEST(ApiSerialize, MalformedInputFailsLoudly) {
  EXPECT_THROW(parse_scenario_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"typo_key": 1}})"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {}, "sim": {"mobility": {"kind": "warp"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"cbtc": {"mode": "sideways"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"base_seed": "not-a-number"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {}, "extra": 1})"), std::invalid_argument);
  // Fractional counts must be rejected, not truncated.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 12.7}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"beacons": {"miss_limit": 2.5}}})"),
      std::invalid_argument);
  // Unknown or fractional partition knobs fail loudly too.
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"partition": {"lanes": 4}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"partition": {"regions": 4.5}}})"),
      std::invalid_argument);
  // Node counts past deployment_spec::max_nodes are refused at parse
  // time, before a position array is sized; the million-node runs the
  // pipeline is measured at stay accepted.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 4294967300}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 1000000000000}}})"),
      std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 16777217}}})"),
               std::invalid_argument);
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 1000000}}})")
                .scenario.deploy.nodes,
            1000000u);
  scenario_spec oversized;
  oversized.deploy.nodes = deployment_spec::max_nodes + 1;
  EXPECT_THROW((void)oversized.make_positions(0), std::invalid_argument);
  // So are Yao cone counts past method_spec::max_yao_cones, before the
  // per-cone arrays are sized; the cap itself is accepted.
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"method": {"name": "yao", "yao_cones": 1e9}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"method": {"name": "yao", "yao_cones": 1025}}})"),
      std::invalid_argument);
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {"method": {"name": "yao", "yao_cones": 1024}}})")
                .scenario.method.yao_cones,
            method_spec::max_yao_cones);
  // And stretch sample counts past deployment_spec::max_nodes: beyond
  // it every node is a source already. The cap itself is accepted.
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"metrics": {"stretch_samples": 1e15}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"metrics": {"stretch_samples": 16777217}}})"),
      std::invalid_argument);
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {"metrics": {"stretch_samples": 16777216}}})")
                .scenario.metrics.stretch_samples,
            deployment_spec::max_nodes);
  // Positions without kind "fixed" would silently run a different
  // network than the file describes.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"positions": [[0, 0]]}}})"),
               std::invalid_argument);
  // Hostile nesting is a typed error, not a stack overflow; the depth
  // cap itself sits exactly at json::max_nesting_depth.
  EXPECT_THROW(parse_scenario_json(std::string(100000, '[')), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": )" + std::string(100000, '{')),
               std::invalid_argument);
  const std::string at_cap =
      std::string(json::max_nesting_depth, '[') + std::string(json::max_nesting_depth, ']');
  EXPECT_NO_THROW((void)json::parse_document(at_cap));
  EXPECT_THROW((void)json::parse_document("[" + at_cap + "]"), std::invalid_argument);
  // Sampling cadences that would never finish (or never advance the
  // clock) are rejected up front, as are non-finite or negative times.
  // Each entry is one "sim" block.
  for (const char* sim : {
           R"({"sample_every": 1e-300})",
           R"({"horizon": 1e300, "sample_every": 5})",
           R"({"horizon": 1e17, "settle": 99999999999999936, "sample_every": 1})",
           R"({"horizon": -1})",
           R"({"settle": -0.5})",
           R"({"sample_every": -5})",
           R"({"horizon": 1e999})",
           // The retired mirror toggle is ignored but still type-checked.
           R"({"mirror_agent_tables": "yes"})",
           R"({"mirror_agent_tables": 1})",
           // Region counts are bounded (a 10000 x 10000 lane grid would
           // exhaust memory) and never narrowed: 2^32 + 16 is not 16.
           R"({"partition": {"regions": 4097}})",
           R"({"partition": {"regions": 100000000}})",
           R"({"partition": {"regions": 4294967312}})",
           R"({"partition": {"regions": 1e30}})",
           // Node ids that do not fit in 32 bits are rejected, not wrapped.
           R"({"traffic": {"period": 1, "sink": 4294967299}})",
           R"({"failures": {"events": [{"node": 4294967296, "time": 1}]}})",
       }) {
    EXPECT_THROW(parse_scenario_json(std::string(R"({"scenario": {}, "sim": )") + sim + "}"),
                 std::invalid_argument)
        << sim;
  }
  // The cap itself: max_samples samples (settle and horizon included)
  // still parse.
  const std::string sample_cap = R"({"scenario": {}, "sim": {"horizon": )" +
                                 std::to_string(sim_spec::max_samples - 2) +
                                 R"(, "settle": 0, "sample_every": 1}})";
  EXPECT_NO_THROW((void)parse_scenario_json(sample_cap));
  // The region cap itself still parses.
  const scenario_file region_cap = parse_scenario_json(
      R"({"scenario": {}, "sim": {"partition": {"regions": )" +
      std::to_string(partition_spec::max_regions) + "}}}");
  ASSERT_TRUE(region_cap.sim.has_value());
  EXPECT_EQ(region_cap.sim->partition.regions, partition_spec::max_regions);
  // Exact integers in scientific notation are still fine.
  const scenario_file sci =
      parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 1e2}}})");
  EXPECT_EQ(sci.scenario.deploy.nodes, 100u);
}

TEST(ApiSerialize, RetiredMirrorKeyIsAcceptedAndIgnored) {
  // The closure mirror is the only topology path; the old toggle still
  // parses (either value) and is never written back.
  const scenario_file plain = parse_scenario_json(R"({"scenario": {}, "sim": {"horizon": 40}})");
  for (const char* flag : {"true", "false"}) {
    const scenario_file keyed = parse_scenario_json(
        std::string(R"({"scenario": {}, "sim": {"horizon": 40, "mirror_agent_tables": )") + flag +
        "}}");
    EXPECT_EQ(to_json(keyed), to_json(plain)) << flag;
    EXPECT_EQ(to_json(keyed).find("mirror_agent_tables"), std::string::npos) << flag;
  }
}

TEST(ApiSerialize, PropagationRoundTripsAllKinds) {
  // Shadowing: every knob, including an exact-u64 seed.
  scenario_file f;
  f.scenario.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                                  .sigma_db = 5.5,
                                  .clamp_db = 11.0,
                                  .seed = 0xfeedfacecafebeefULL};
  scenario_file parsed = parse_scenario_json(to_json(f));
  EXPECT_EQ(parsed.scenario.radio.propagation.kind,
            radio::propagation_kind::lognormal_shadowing);
  EXPECT_DOUBLE_EQ(parsed.scenario.radio.propagation.sigma_db, 5.5);
  EXPECT_DOUBLE_EQ(parsed.scenario.radio.propagation.clamp_db, 11.0);
  EXPECT_EQ(parsed.scenario.radio.propagation.seed, 0xfeedfacecafebeefULL);

  // Obstacles: boxes and losses survive exactly.
  f.scenario.radio.propagation = {};
  f.scenario.radio.propagation.kind = radio::propagation_kind::obstacle_field;
  f.scenario.radio.propagation.obstacles = {
      {.box = {{1.5, 2.5}, {30.0, 40.0}}, .loss_db = 7.25},
      {.box = {{-10.0, -20.0}, {-1.0, -2.0}}, .loss_db = 3.0},
  };
  parsed = parse_scenario_json(to_json(f));
  EXPECT_EQ(parsed.scenario.radio.propagation.kind, radio::propagation_kind::obstacle_field);
  ASSERT_EQ(parsed.scenario.radio.propagation.obstacles.size(), 2u);
  EXPECT_EQ(parsed.scenario.radio.propagation.obstacles[0],
            f.scenario.radio.propagation.obstacles[0]);
  EXPECT_EQ(parsed.scenario.radio.propagation.obstacles[1],
            f.scenario.radio.propagation.obstacles[1]);

  // Isotropic is the default and is never written out.
  f.scenario.radio.propagation = {};
  EXPECT_EQ(to_json(f).find("propagation"), std::string::npos);
  EXPECT_EQ(parse_scenario_json(to_json(f)).scenario.radio.propagation.kind,
            radio::propagation_kind::isotropic);
}

/// Property/fuzz pass: a pseudo-random walk over the spec space. The
/// invariant is idempotence at the JSON level — parse(to_json(x))
/// serializes to the identical string — which catches any field that
/// is written but not read, read but not written, or lossily encoded.
TEST(ApiSerialize, RandomSpecsRoundTripIdempotently) {
  std::mt19937_64 rng(20260729);
  const auto pick_double = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (int round = 0; round < 200; ++round) {
    scenario_file f;
    scenario_spec& s = f.scenario;
    s.name = "fuzz_" + std::to_string(round);
    s.deploy.kind = static_cast<deployment_kind>(rng() % 3);  // fixed handled elsewhere
    s.deploy.nodes = 1 + rng() % 500;
    s.deploy.region_side = pick_double(10.0, 5000.0);
    s.deploy.clusters = 1 + rng() % 9;
    s.deploy.cluster_sigma = pick_double(1.0, 400.0);
    s.deploy.grid_jitter = pick_double(0.0, 1.0);
    s.radio.path_loss_exponent = pick_double(1.0, 6.0);
    s.radio.max_range = pick_double(10.0, 2000.0);
    switch (rng() % 3) {
      case 0:
        break;  // isotropic
      case 1:
        s.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                               .sigma_db = pick_double(0.0, 12.0),
                               .clamp_db = pick_double(0.0, 20.0),
                               .seed = rng()};
        break;
      default: {
        s.radio.propagation.kind = radio::propagation_kind::obstacle_field;
        const std::size_t count = 1 + rng() % 5;
        for (std::size_t i = 0; i < count; ++i) {
          const double x0 = pick_double(-100.0, 1000.0);
          const double y0 = pick_double(-100.0, 1000.0);
          s.radio.propagation.obstacles.push_back(
              {.box = {{x0, y0}, {x0 + pick_double(0.0, 500.0), y0 + pick_double(0.0, 500.0)}},
               .loss_db = pick_double(0.1, 30.0)});
        }
        break;
      }
    }
    switch (rng() % 3) {
      case 0:
        s.method = method_spec::protocol();
        break;
      case 1:
        s.method = method_spec::stc();
        break;
      default:
        s.method = method_spec::of_baseline(static_cast<baseline_kind>(rng() % 6));
        break;
    }
    s.opts.gain_aware = rng() % 2 == 0;
    s.cbtc.alpha = pick_double(0.1, 6.0);
    s.cbtc.increase_factor = pick_double(1.1, 4.0);
    s.cbtc.intra_threads = static_cast<unsigned>(rng() % 9);
    s.base_seed = rng();
    s.metrics.stretch = rng() % 2 == 0;
    s.metrics.stretch_samples = rng() % 64;
    if (rng() % 2 == 0) {
      sim_spec dyn;
      dyn.horizon = pick_double(1.0, 500.0);
      dyn.settle = pick_double(0.0, 50.0);
      dyn.partition.regions = static_cast<std::uint32_t>(rng() % 17);
      dyn.partition.min_nodes = rng() % 10000;
      dyn.mobility.kind = static_cast<mobility_kind>(rng() % 3);
      dyn.mobility.max_speed = pick_double(0.0, 20.0);
      dyn.failures.random_crashes = rng() % 10;
      f.sim = dyn;
    }

    const std::string once = to_json(f);
    const std::string twice = to_json(parse_scenario_json(once));
    ASSERT_EQ(once, twice) << "round " << round;
  }
}

TEST(ApiSerialize, MalformedPropagationFailsLoudly) {
  // Unknown kind.
  EXPECT_THROW(parse_scenario_json(
                   R"({"scenario": {"radio": {"propagation": {"kind": "tachyonic"}}}})"),
               std::invalid_argument);
  // Unknown key inside the propagation object.
  EXPECT_THROW(parse_scenario_json(
                   R"({"scenario": {"radio": {"propagation": {"kind": "isotropic", "x": 1}}}})"),
               std::invalid_argument);
  // Wrong type for sigma_db.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "sigma_db": "big"}}}})"),
      std::invalid_argument);
  // Shadowing-only keys on a foreign kind are rejected, not silently
  // dropped (a stray sigma_db almost always means the kind is wrong).
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "isotropic", "sigma_db": 6}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles", "seed": 3,
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  // Negative sigma / clamp.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "sigma_db": -4}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "clamp_db": -1}}}})"),
      std::invalid_argument);
  // Obstacles on a non-obstacle kind.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "isotropic",
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  // Obstacle box with the wrong arity, inverted corners, bad loss.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [0, 0, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [5, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 0}]}}}})"),
      std::invalid_argument);
  // Empty obstacle list for an obstacle field.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles", "obstacles": []}}}})"),
      std::invalid_argument);
  // The short aliases parse.
  EXPECT_EQ(parse_scenario_json(
                R"({"scenario": {"radio": {"propagation": {"kind": "shadowing"}}}})")
                .scenario.radio.propagation.kind,
            radio::propagation_kind::lognormal_shadowing);
}

TEST(ApiSerialize, SaveAndLoadFile) {
  const std::string path = "/tmp/cbtc_serialize_test.json";
  const scenario_file original = busy_file();
  save_scenario_file(path, original);
  const scenario_file loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.scenario.name, original.scenario.name);
  EXPECT_EQ(loaded.scenario.base_seed, original.scenario.base_seed);
  ASSERT_TRUE(loaded.sim.has_value());
  EXPECT_DOUBLE_EQ(loaded.sim->horizon, original.sim->horizon);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file("/nonexistent/dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace cbtc::api
