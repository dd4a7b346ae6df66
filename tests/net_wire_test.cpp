// Wire-format contract: frames and messages must round-trip exactly
// (the dispatcher's bitwise-determinism rests on it), and malformed
// input — truncated frames, oversized prefixes, fuzzily corrupted
// JSON, version-mismatched handshakes — must be rejected with a typed
// error, never accepted or crashed on.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "api/engine.h"
#include "api/registry.h"
#include "api/wire.h"
#include "net/frame.h"
#include "net/socket.h"

namespace cbtc {
namespace {

using api::batch_report;
using api::dynamic_batch_report;
using api::engine;
using api::lifetime_batch_report;
namespace wire = api::wire;

/// Exact equality of summary internals — the wire must reproduce the
/// accumulator bit for bit, not just to rounding.
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
  expect_same(a.power_stretch_max, b.power_stretch_max, "power_stretch_max");
  expect_same(a.hop_stretch, b.hop_stretch, "hop_stretch");
  expect_same(a.hop_stretch_max, b.hop_stretch_max, "hop_stretch_max");
  expect_same(a.interference, b.interference, "interference");
  expect_same(a.cut_vertices, b.cut_vertices, "cut_vertices");
  expect_same(a.removed_edges, b.removed_edges, "removed_edges");
  EXPECT_EQ(a.has_protocol_stats, b.has_protocol_stats);
  expect_same(a.messages, b.messages, "messages");
  expect_same(a.deliveries, b.deliveries, "deliveries");
  expect_same(a.tx_energy, b.tx_energy, "tx_energy");
  expect_same(a.completion_time, b.completion_time, "completion_time");
}

TEST(WireTest, BatchReportPartialRoundTripsExactly) {
  api::scenario_spec spec = *api::find_scenario("paper_table1");
  spec.deploy.nodes = 40;
  const engine eng;
  batch_report original;
  eng.run_batch_blocks(spec, {0, 20}, {0, 2}, 1,
                       [&](std::uint64_t block, const batch_report& partial) {
                         const std::string payload = wire::encode_block_partial(block, partial);
                         batch_report decoded;
                         const std::uint64_t got =
                             wire::decode_block_partial(wire::decode_message(payload), decoded);
                         EXPECT_EQ(got, block);
                         expect_same(partial, decoded);
                         original.merge(partial);
                       });
  EXPECT_EQ(original.runs, 20u);
}

TEST(WireTest, LifetimeAndDynamicPartialsRoundTrip) {
  dynamic_batch_report dyn;
  {
    api::dynamic_report r;
    r.joins = 3;
    r.channel.broadcasts = 17;
    r.time_to_partition = 123.4375;
    dyn.accumulate(r);
  }
  const std::string dpayload = wire::encode_block_partial(7, dyn);
  dynamic_batch_report dyn2;
  EXPECT_EQ(wire::decode_block_partial(wire::decode_message(dpayload), dyn2), 7u);
  EXPECT_EQ(dyn2.runs, dyn.runs);
  expect_same(dyn.joins, dyn2.joins, "joins");
  expect_same(dyn.broadcasts, dyn2.broadcasts, "broadcasts");
  expect_same(dyn.time_to_partition, dyn2.time_to_partition, "time_to_partition");

  lifetime_batch_report life;
  {
    api::lifetime_report r;
    r.first_death = 12.25;
    r.quarter_dead = 19.5;
    r.field_partition = 31.0;
    life.accumulate(r);
  }
  const std::string lpayload = wire::encode_block_partial(3, life);
  lifetime_batch_report life2;
  EXPECT_EQ(wire::decode_block_partial(wire::decode_message(lpayload), life2), 3u);
  EXPECT_EQ(life2.runs, life.runs);
  expect_same(life.first_death, life2.first_death, "first_death");
  expect_same(life.quarter_dead, life2.quarter_dead, "quarter_dead");
  expect_same(life.field_partition, life2.field_partition, "field_partition");
}

TEST(WireTest, PartialModeTagIsChecked) {
  lifetime_batch_report life;
  const std::string payload = wire::encode_block_partial(0, life);
  batch_report wrong;
  EXPECT_THROW(wire::decode_block_partial(wire::decode_message(payload), wrong),
               std::invalid_argument);
}

TEST(WireTest, BatchRequestRoundTripsEveryMode) {
  wire::batch_request req;
  req.scenario = *api::find_scenario("paper_table1");
  req.seeds = {5, 1000};
  req.blocks = {3, 17};
  req.threads = 4;

  for (const wire::batch_mode mode :
       {wire::batch_mode::static_runs, wire::batch_mode::dynamic_runs,
        wire::batch_mode::lifetime_runs}) {
    req.mode = mode;
    req.sim.horizon = 250.0;
    req.lifetime.battery_rounds = 17.5;
    const wire::batch_request back =
        wire::decode_batch_request(wire::decode_message(wire::encode_batch_request(req)));
    EXPECT_EQ(back.mode, mode);
    EXPECT_EQ(back.seeds.first, 5u);
    EXPECT_EQ(back.seeds.count, 1000u);
    EXPECT_EQ(back.blocks.first, 3u);
    EXPECT_EQ(back.blocks.count, 17u);
    EXPECT_EQ(back.threads, 4u);
    EXPECT_EQ(back.scenario.deploy.nodes, req.scenario.deploy.nodes);
    EXPECT_EQ(back.scenario.base_seed, req.scenario.base_seed);
    EXPECT_EQ(back.scenario.cbtc.alpha, req.scenario.cbtc.alpha);
    if (mode == wire::batch_mode::dynamic_runs) EXPECT_EQ(back.sim.horizon, 250.0);
    if (mode == wire::batch_mode::lifetime_runs) {
      EXPECT_EQ(back.lifetime.battery_rounds, 17.5);
    }
  }
}

TEST(WireTest, HandshakeVersionMismatchIsRejected) {
  EXPECT_NO_THROW(wire::check_hello(wire::decode_message(wire::encode_hello())));
  EXPECT_THROW(wire::check_hello(wire::decode_message(
                   R"({"type": "hello", "protocol": "cbtc-wire", "version": 2})")),
               std::invalid_argument);
  EXPECT_THROW(wire::check_hello(wire::decode_message(
                   R"({"type": "hello", "protocol": "other-wire", "version": 1})")),
               std::invalid_argument);
  // Not a hello at all.
  EXPECT_THROW(wire::check_hello(wire::decode_message(R"({"type": "done", "blocks": 0})")),
               std::invalid_argument);
}

TEST(WireTest, ControlMessagesRoundTrip) {
  EXPECT_EQ(wire::decode_done(wire::decode_message(wire::encode_done(42))), 42u);
  EXPECT_EQ(wire::decode_error(wire::decode_message(wire::encode_error("boom"))), "boom");
  EXPECT_EQ(wire::decode_message(wire::encode_shutdown()).type, wire::message_type::shutdown);
}

TEST(WireTest, MalformedMessagesAreRejected) {
  EXPECT_THROW(wire::decode_message("not json"), std::invalid_argument);
  EXPECT_THROW(wire::decode_message("[1, 2, 3]"), std::invalid_argument);
  EXPECT_THROW(wire::decode_message(R"({"type": "nonsense"})"), std::invalid_argument);
  // Unknown keys are rejected, not ignored (strict-parse policy).
  EXPECT_THROW((void)wire::decode_done(wire::decode_message(
                   R"({"type": "done", "blocks": 1, "extra": true})")),
               std::invalid_argument);
  // Hostile nesting is a typed error, not a stack overflow.
  EXPECT_THROW(wire::decode_message(std::string(100000, '[')), std::invalid_argument);
  EXPECT_THROW(wire::decode_message(R"({"type": "done", "blocks": )" + std::string(100000, '{')),
               std::invalid_argument);
  // A dynamic request whose sampling would never finish (or never
  // advance the clock) is refused at decode, before a shard runs it.
  wire::batch_request req;
  req.mode = wire::batch_mode::dynamic_runs;
  req.scenario = *api::find_scenario("paper_table1");
  req.seeds = {0, 1};
  req.blocks = {0, 1};
  for (const auto& [horizon, settle, sample_every] :
       {std::tuple{120.0, 15.0, 1e-300}, std::tuple{1e300, 15.0, 5.0},
        std::tuple{1e17, 1e17 - 64.0, 1.0}, std::tuple{-1.0, 15.0, 5.0}}) {
    req.sim.horizon = horizon;
    req.sim.settle = settle;
    req.sim.sample_every = sample_every;
    const std::string frame = wire::encode_batch_request(req);
    EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
                 std::invalid_argument)
        << frame;
  }
  // A node count past deployment_spec::max_nodes (here 2^32 + 4, which
  // must not wrap to 4 either) is refused at decode, before a shard
  // sizes a position array for it.
  {
    wire::batch_request big;
    big.mode = wire::batch_mode::static_runs;
    big.scenario = *api::find_scenario("paper_table1");
    big.scenario.deploy.nodes = (std::size_t{1} << 32) + 4;
    big.seeds = {0, 1};
    big.blocks = {0, 1};
    const std::string frame = wire::encode_batch_request(big);
    EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
                 std::invalid_argument)
        << frame;
  }
  // So is a Yao cone count past method_spec::max_yao_cones; the cap
  // itself decodes.
  for (const std::size_t cones : {std::size_t{1000000000}, api::method_spec::max_yao_cones + 1,
                                  api::method_spec::max_yao_cones}) {
    wire::batch_request yao;
    yao.mode = wire::batch_mode::static_runs;
    yao.scenario = *api::find_scenario("paper_table1");
    yao.scenario.method = api::method_spec::of_baseline(api::baseline_kind::yao);
    yao.scenario.method.yao_cones = cones;
    yao.seeds = {0, 1};
    yao.blocks = {0, 1};
    const std::string frame = wire::encode_batch_request(yao);
    if (cones > api::method_spec::max_yao_cones) {
      EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
                   std::invalid_argument)
          << frame;
    } else {
      EXPECT_EQ(wire::decode_batch_request(wire::decode_message(frame)).scenario.method.yao_cones,
                cones);
    }
  }
  // And a stretch sample count past deployment_spec::max_nodes (every
  // node is already a source there); the cap itself decodes.
  constexpr std::size_t node_cap = api::deployment_spec::max_nodes;
  for (const std::size_t samples : {std::size_t{1000000000000000}, node_cap + 1, node_cap}) {
    wire::batch_request sampled;
    sampled.mode = wire::batch_mode::static_runs;
    sampled.scenario = *api::find_scenario("paper_table1");
    sampled.scenario.metrics.stretch_samples = samples;
    sampled.seeds = {0, 1};
    sampled.blocks = {0, 1};
    const std::string frame = wire::encode_batch_request(sampled);
    if (samples > node_cap) {
      EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
                   std::invalid_argument)
          << frame;
    } else {
      EXPECT_EQ(
          wire::decode_batch_request(wire::decode_message(frame)).scenario.metrics.stretch_samples,
          samples);
    }
  }
  // Region counts and sink ids are refused at decode too: an oversized
  // lane grid must not be allocated, and values past 32 bits must not
  // wrap to small ones (2^32 + 16 regions, 2^32 + 3 as the sink).
  req.sim = api::sim_spec{};
  req.sim.partition.regions = 100000000;
  const std::string huge = wire::encode_batch_request(req);
  EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(huge)),
               std::invalid_argument);
  req.sim.partition.regions = 16;
  req.sim.traffic.period = 1.0;
  req.sim.traffic.sink = 3;
  const std::string valid = wire::encode_batch_request(req);
  EXPECT_NO_THROW((void)wire::decode_batch_request(wire::decode_message(valid)));
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{R"("regions": 16,)", R"("regions": 4294967312,)"},
        {R"("sink": 3,)", R"("sink": 4294967299,)"}}) {
    std::string frame = valid;
    const std::size_t at = frame.find(from);
    ASSERT_NE(at, std::string::npos) << frame;
    frame.replace(at, from.size(), to);
    EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
                 std::invalid_argument)
        << frame;
  }
}

// ---- frame transport over a loopback socket pair -------------------

struct socket_pair {
  net::tcp_listener listener{"127.0.0.1", 0};
  net::tcp_stream client;
  net::tcp_stream server;

  socket_pair() {
    std::thread t([this] { client = net::tcp_stream::connect("127.0.0.1", listener.port(), 2000); });
    auto accepted = listener.accept(2000);
    t.join();
    if (accepted) server = std::move(*accepted);
  }
};

TEST(FrameTest, RoundTripsPayloads) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  for (const std::string payload : {std::string(""), std::string("{}"),
                                    std::string(1000, 'x'), std::string("\0\x01\xff binary", 10)}) {
    net::write_frame(pair.client, payload, 2000);
    EXPECT_EQ(net::read_frame(pair.server, 2000), payload);
  }
}

TEST(FrameTest, OversizedFrameIsRejectedBeforeAllocation) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  // A length prefix claiming 256 MiB: read_frame must refuse without
  // trying to read (or allocate) the body.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  EXPECT_THROW((void)net::read_frame(pair.server, 2000), net::net_error);
  EXPECT_THROW((void)net::encode_frame(std::string(net::max_frame_bytes + 1, 'x')),
               net::net_error);
}

TEST(FrameTest, TruncatedFrameSurfacesAsNetError) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  // Claim 100 bytes, deliver 10, hang up.
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  pair.client.send_all("0123456789", 10, 2000);
  pair.client.close();
  EXPECT_THROW((void)net::read_frame(pair.server, 2000), net::net_error);
}

TEST(FrameTest, SlowFrameTimesOut) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x10};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  // Body never arrives: the read must give up in bounded time.
  EXPECT_THROW((void)net::read_frame(pair.server, 100), net::timeout_error);
}

TEST(FrameTest, CorruptedPayloadFuzzNeverCrashes) {
  // Deterministic mutation fuzz: flip/trim valid frames and require a
  // typed parse error or a clean decode — never a crash or hang.
  const std::string base = wire::encode_hello();
  std::mt19937 rng(20010601);
  for (int i = 0; i < 500; ++i) {
    std::string payload = base;
    const int op = static_cast<int>(rng() % 3);
    if (op == 0 && !payload.empty()) {
      payload[rng() % payload.size()] = static_cast<char>(rng() % 256);
    } else if (op == 1) {
      payload = payload.substr(0, rng() % (payload.size() + 1));
    } else {
      payload.insert(rng() % (payload.size() + 1), 1, static_cast<char>(rng() % 256));
    }
    try {
      const wire::message m = wire::decode_message(payload);
      (void)m;
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

}  // namespace
}  // namespace cbtc
