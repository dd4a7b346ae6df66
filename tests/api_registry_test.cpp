// The named-scenario registry: built-ins resolve, registration is one
// call, unknown names fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#include "api/api.h"
#include "api/wire.h"

namespace cbtc::api {
namespace {

TEST(ApiRegistry, BuiltInsArePresent) {
  const auto names = scenario_names();
  for (const char* expected : {"paper_table1", "paper_basic", "paper_protocol", "figure6",
                               "dense_sensor_field", "sparse_adhoc", "grid_mesh", "shadowed_field",
                               "urban_obstacles", "shadowed_field_stc", "urban_obstacles_stc"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing built-in scenario: " << expected;
  }
}

TEST(ApiRegistry, PaperTable1MatchesSection5Workload) {
  const scenario_spec s = get_scenario("paper_table1");
  EXPECT_EQ(s.deploy.kind, deployment_kind::uniform);
  EXPECT_EQ(s.deploy.nodes, 100u);
  EXPECT_DOUBLE_EQ(s.deploy.region_side, 1500.0);
  EXPECT_DOUBLE_EQ(s.radio.max_range, 500.0);
  EXPECT_DOUBLE_EQ(s.radio.path_loss_exponent, 2.0);
  EXPECT_TRUE(s.opts.shrink_back);
  EXPECT_TRUE(s.opts.pairwise_removal);
  EXPECT_EQ(s.method.k, method_spec::kind::oracle);
}

TEST(ApiRegistry, UnknownNamesFail) {
  EXPECT_FALSE(find_scenario("no_such_scenario").has_value());
  EXPECT_THROW((void)get_scenario("no_such_scenario"), std::out_of_range);
}

TEST(ApiRegistry, RegistrationIsOneCall) {
  scenario_spec s = get_scenario("paper_table1");
  s.name = "registry_test_tiny";
  s.deploy.nodes = 12;
  register_scenario(s);

  const auto found = find_scenario("registry_test_tiny");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->deploy.nodes, 12u);

  // Registration overwrites.
  s.deploy.nodes = 13;
  register_scenario(s);
  EXPECT_EQ(get_scenario("registry_test_tiny").deploy.nodes, 13u);
}

TEST(ApiRegistry, EmptyNameRejected) {
  EXPECT_THROW(register_scenario(scenario_spec{}), std::invalid_argument);
}

TEST(ApiRegistry, MethodNamesRoundTrip) {
  for (const char* name : {"oracle", "protocol", "stc", "mst", "rng", "gabriel", "yao", "knn",
                           "max-power"}) {
    EXPECT_EQ(method_name(parse_method(name)), name);
  }
  EXPECT_EQ(method_name(parse_method("sethu-gerety")), "stc");
  EXPECT_THROW((void)parse_method("carrier-pigeon"), std::invalid_argument);
}

// Pins every preset's optimization flags, so a preset silently losing
// its op3-class pass (the pre-gain-aware state of the non-isotropic
// presets) fails loudly.
TEST(ApiRegistry, PresetOptimizationFlagsPinned) {
  struct pin {
    const char* name;
    bool shrink_back;
    bool pairwise_removal;
    bool gain_aware;
  };
  for (const pin& p : std::initializer_list<pin>{
           {"paper_table1", true, true, false},
           {"paper_basic", false, false, false},
           {"figure6", true, true, false},
           {"paper_protocol", true, true, false},
           {"dense_sensor_field", true, true, false},
           {"sparse_adhoc", true, true, false},
           {"grid_mesh", true, true, false},
           {"shadowed_field", true, false, true},
           {"urban_obstacles", true, false, true},
       }) {
    const scenario_spec s = get_scenario(p.name);
    EXPECT_EQ(s.opts.shrink_back, p.shrink_back) << p.name;
    EXPECT_EQ(s.opts.pairwise_removal, p.pairwise_removal) << p.name;
    EXPECT_EQ(s.opts.gain_aware, p.gain_aware) << p.name;
    // Every non-isotropic preset must run an op3-class removal pass.
    if (s.radio.propagation.kind != radio::propagation_kind::isotropic) {
      EXPECT_TRUE(s.opts.gain_aware || s.opts.pairwise_removal) << p.name;
    }
  }
  // The STC presets pair the same fields with the stc method.
  for (const char* name : {"shadowed_field_stc", "urban_obstacles_stc"}) {
    const scenario_spec s = get_scenario(name);
    EXPECT_EQ(s.method.k, method_spec::kind::stc) << name;
    EXPECT_NE(s.radio.propagation.kind, radio::propagation_kind::isotropic) << name;
  }
}

// ---- preset byte-identity pin --------------------------------------
//
// Every registry preset, shrunk to a small node count, runs one
// streaming batch block; the block's wire encoding (every aggregate,
// bit for bit) is hashed and compared against a digest recorded before
// the static pipeline was collapsed to one implementation per pass.
// A refactor that changes any preset's serialized report — at either
// intra-thread width — fails here. Re-record only for an intended
// behaviour change: the failure message prints the new digest.

constexpr std::size_t pin_nodes = 36;
constexpr seed_range pin_seeds{.first = 0, .count = 4};
constexpr unsigned pin_widths[] = {1, 4};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

scenario_spec pinned(scenario_spec s, unsigned width) {
  s.deploy.nodes = pin_nodes;
  s.cbtc.intra_threads = width;
  return s;
}

/// Digest of block 0 of a batch over pin_seeds (one block: the seed
/// count is below engine::batch_block_size). `run` forwards to the
/// matching engine::run_batch_blocks overload.
template <class Report, class Run>
std::uint64_t block_digest(const Run& run) {
  std::string frame;
  run([&](std::uint64_t block, const Report& r) { frame = wire::encode_block_partial(block, r); });
  EXPECT_FALSE(frame.empty());
  return fnv1a(frame);
}

struct preset_pin {
  const char* name;
  std::uint64_t digest;
};

TEST(ApiRegistry, PresetReportsByteIdenticalAcrossRefactors) {
  const engine eng;
  const block_range first{.first = 0, .count = 1};
  const auto check = [](const char* family, const preset_pin& p, unsigned width,
                        std::uint64_t got) {
    EXPECT_EQ(got, p.digest) << family << " preset " << p.name << " at intra_threads " << width
                             << ": digest " << hex(got);
  };

  const preset_pin statics[] = {
      {"dense_sensor_field", 0xd941d0476722ae71ull},
      {"figure6", 0x12e1aff41401436aull},
      {"grid_mesh", 0x60cf5c70714279bbull},
      {"paper_basic", 0xd1b747a01d4ff546ull},
      {"paper_protocol", 0xcca296eb4f44751bull},
      {"paper_table1", 0x10988ed40018b341ull},
      {"shadowed_field", 0x5528b58c74661cf9ull},
      {"shadowed_field_stc", 0xaedd3e7adef12a62ull},
      {"sparse_adhoc", 0x83933c5b6f34a5b3ull},
      {"urban_obstacles", 0x9122c3ca2c831c86ull},
      {"urban_obstacles_stc", 0x6fc0e92ef84a87fdull},
  };
  for (const preset_pin& p : statics) {
    for (const unsigned w : pin_widths) {
      const scenario_spec spec = pinned(get_scenario(p.name), w);
      check("static", p, w, block_digest<batch_report>([&](const auto& sink) {
              eng.run_batch_blocks(spec, pin_seeds, first, 1, sink);
            }));
    }
  }

  const preset_pin dynamics[] = {
      {"convergecast_grid", 0x8eaaf9f151651767ull},
      {"crash_recovery", 0x6c685eef9b57d6bbull},
      {"dense_mobile_field", 0x1c127e1d47f233d2ull},
      {"mobile_churn", 0xf4472436899303bcull},
      {"shadowed_field_mobile", 0x4729bd56a0b15191ull},
      {"urban_obstacles_churn", 0x885b63d8b8903f11ull},
  };
  for (const preset_pin& p : dynamics) {
    const dynamic_scenario d = get_dynamic_scenario(p.name);
    for (const unsigned w : pin_widths) {
      const scenario_spec spec = pinned(d.scenario, w);
      check("dynamic", p, w, block_digest<dynamic_batch_report>([&](const auto& sink) {
              eng.run_batch_blocks(spec, d.sim, pin_seeds, first, 1, sink);
            }));
    }
  }

  // Lifetime runs have no presets of their own: every static preset
  // drains its batteries under the default routing policy.
  const preset_pin lifetimes[] = {
      {"dense_sensor_field", 0x7175adf835598929ull},
      {"figure6", 0x491ef2bd547c9a43ull},
      {"grid_mesh", 0x8be670e5e0989d12ull},
      {"paper_basic", 0x0cd421e3c34d4768ull},
      {"paper_protocol", 0x491ef2bd547c9a43ull},
      {"paper_table1", 0x491ef2bd547c9a43ull},
      {"shadowed_field", 0x5b017de9d4b3d93dull},
      {"shadowed_field_stc", 0x5e8d421adf69a2cfull},
      {"sparse_adhoc", 0xbe88c7f074fad777ull},
      {"urban_obstacles", 0x7084c822f8f2c7faull},
      {"urban_obstacles_stc", 0x419fc80c1b6c0ad6ull},
  };
  const lifetime_spec life{.battery_rounds = 25.0, .flows = 15, .max_rounds = 2000};
  for (const preset_pin& p : lifetimes) {
    for (const unsigned w : pin_widths) {
      const scenario_spec spec = pinned(get_scenario(p.name), w);
      check("lifetime", p, w, block_digest<lifetime_batch_report>([&](const auto& sink) {
              eng.run_batch_blocks(spec, life, pin_seeds, first, 1, sink);
            }));
    }
  }
}

// The adaptive lifetime paths price beacons and route costs per link;
// pin each policy (and convergecast routing) on an isotropic and a
// shadowed preset, so a change to that cost code shows here.
TEST(ApiRegistry, LifetimePoliciesByteIdenticalAcrossRefactors) {
  const engine eng;
  const block_range first{.first = 0, .count = 1};
  struct policy_pin {
    const char* preset;
    lifetime_spec life;
    const char* label;
    std::uint64_t digest;
  };
  const lifetime_spec base{.battery_rounds = 25.0, .flows = 15, .max_rounds = 2000};
  lifetime_spec balanced = base;
  balanced.policy = lifetime_policy::energy_balanced;
  lifetime_spec cooperative = base;
  cooperative.policy = lifetime_policy::cooperative_adaptation;
  lifetime_spec convergecast = base;
  convergecast.convergecast = true;
  const policy_pin pins[] = {
      {"paper_table1", balanced, "energy_balanced", 0xdd68389380355a14ull},
      {"paper_table1", cooperative, "cooperative_adaptation", 0x2f1d3f22532b5f74ull},
      {"paper_table1", convergecast, "convergecast", 0xec034b492565498bull},
      {"shadowed_field", balanced, "energy_balanced", 0x80e7e615d8515ae9ull},
      {"shadowed_field", cooperative, "cooperative_adaptation", 0x04f2453da53adbf3ull},
      {"shadowed_field", convergecast, "convergecast", 0x294152ceacc85255ull},
  };
  for (const policy_pin& p : pins) {
    for (const unsigned w : pin_widths) {
      const scenario_spec spec = pinned(get_scenario(p.preset), w);
      const std::uint64_t got = block_digest<lifetime_batch_report>([&](const auto& sink) {
        eng.run_batch_blocks(spec, p.life, pin_seeds, first, 1, sink);
      });
      EXPECT_EQ(got, p.digest) << p.preset << " under " << p.label << " at intra_threads " << w
                               << ": digest " << hex(got);
    }
  }
}

}  // namespace
}  // namespace cbtc::api
