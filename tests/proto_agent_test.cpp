// The distributed protocol must compute exactly what the oracle
// computes (reliable channel), and degrade gracefully under loss,
// duplication, and direction noise.
#include <gtest/gtest.h>

#include <set>

#include "algo/oracle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"
#include "proto/runner.h"
#include "radio/power_model.h"

namespace cbtc::proto {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

protocol_run_config reliable_config(double alpha = algo::alpha_five_pi_six) {
  protocol_run_config cfg;
  cfg.agent.params.alpha = alpha;
  cfg.agent.round_timeout = 0.5;
  cfg.channel.base_delay = 0.01;  // << round_timeout: acks land in-round
  return cfg;
}

std::set<graph::node_id> ids(const algo::node_result& n) {
  std::set<graph::node_id> s;
  for (const auto& rec : n.neighbors) s.insert(rec.id);
  return s;
}

TEST(ProtocolAgent, MatchesOracleOnPaperWorkload) {
  const auto positions = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 42);
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, run.outcome.params);

  ASSERT_EQ(run.outcome.num_nodes(), oracle.num_nodes());
  for (std::size_t u = 0; u < oracle.num_nodes(); ++u) {
    EXPECT_EQ(ids(run.outcome.nodes[u]), ids(oracle.nodes[u])) << "node " << u;
    EXPECT_EQ(run.outcome.nodes[u].boundary, oracle.nodes[u].boundary) << "node " << u;
    EXPECT_NEAR(run.outcome.nodes[u].final_power, oracle.nodes[u].final_power,
                1e-6 * oracle.nodes[u].final_power)
        << "node " << u;
    EXPECT_EQ(run.outcome.nodes[u].level_powers.size(), oracle.nodes[u].level_powers.size())
        << "node " << u;
  }
}

TEST(ProtocolAgent, MatchesOracleAcrossAlphaAndSeeds) {
  for (double alpha : {algo::alpha_two_pi_three, algo::alpha_five_pi_six}) {
    for (std::uint64_t seed : {7u, 8u}) {
      const auto positions = geom::uniform_points(60, geom::bbox::rect(1200, 1200), seed);
      const protocol_run_result run = run_protocol(positions, pm, reliable_config(alpha));
      const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, run.outcome.params);
      for (std::size_t u = 0; u < oracle.num_nodes(); ++u) {
        EXPECT_EQ(ids(run.outcome.nodes[u]), ids(oracle.nodes[u]))
            << "alpha=" << alpha << " seed=" << seed << " node=" << u;
      }
    }
  }
}

TEST(ProtocolAgent, NeighborDistancesRecoveredFromPowers) {
  // The agent never sees positions; its distance estimates derive from
  // (tx, rx) power pairs and must match the geometry exactly in the
  // noise-free model.
  const auto positions = geom::uniform_points(40, geom::bbox::rect(1000, 1000), 3);
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  for (std::size_t u = 0; u < positions.size(); ++u) {
    for (const auto& rec : run.outcome.nodes[u].neighbors) {
      EXPECT_NEAR(rec.distance, geom::distance(positions[u], positions[rec.id]), 1e-6);
    }
  }
}

TEST(ProtocolAgent, DirectionsAreAnglesOfArrival) {
  const auto positions = geom::uniform_points(40, geom::bbox::rect(1000, 1000), 4);
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  for (std::size_t u = 0; u < positions.size(); ++u) {
    for (const auto& rec : run.outcome.nodes[u].neighbors) {
      const double expected = (positions[rec.id] - positions[u]).bearing();
      EXPECT_NEAR(geom::angle_dist(rec.direction, expected), 0.0, 1e-9);
    }
  }
}

TEST(ProtocolAgent, ClosurePreservesConnectivity) {
  const auto positions = geom::uniform_points(80, geom::bbox::rect(1500, 1500), 11);
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  const auto gr = graph::build_max_power_graph(positions, pm);
  EXPECT_TRUE(graph::same_connectivity(run.outcome.symmetric_closure(), gr));
}

TEST(ProtocolAgent, DropNoticesYieldSymmetricRelation) {
  // After the Section 3.2 notification round, the neighbor relation is
  // symmetric: the remaining digraph equals its own core and closure.
  protocol_run_config cfg = reliable_config(algo::alpha_two_pi_three);
  cfg.send_drop_notices = true;
  const auto positions = geom::uniform_points(80, geom::bbox::rect(1500, 1500), 13);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const auto digraph = run.outcome.neighbor_digraph();
  EXPECT_EQ(digraph.symmetric_closure(), digraph.symmetric_core());
}

TEST(ProtocolAgent, DropNoticesMatchOracleCore) {
  protocol_run_config cfg = reliable_config(algo::alpha_two_pi_three);
  cfg.send_drop_notices = true;
  const auto positions = geom::uniform_points(70, geom::bbox::rect(1400, 1400), 17);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, run.outcome.params);
  EXPECT_EQ(run.outcome.symmetric_closure(), oracle.symmetric_core());
  const auto gr = graph::build_max_power_graph(positions, pm);
  EXPECT_TRUE(graph::same_connectivity(run.outcome.symmetric_closure(), gr));
}

TEST(ProtocolAgent, CompletesUnderMessageLossWithRetries) {
  // With per-level retries the growing phase finishes despite loss;
  // discovered sets may be supersets of nothing / subsets of the oracle
  // but every agent terminates.
  protocol_run_config cfg = reliable_config();
  cfg.channel.drop_prob = 0.2;
  cfg.agent.retries_per_level = 3;
  cfg.seed = 5;
  const auto positions = geom::uniform_points(60, geom::bbox::rect(1200, 1200), 19);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  EXPECT_EQ(run.outcome.num_nodes(), positions.size());
  EXPECT_GT(run.stats.drops, 0u);
}

TEST(ProtocolAgent, DuplicationIsIdempotent) {
  protocol_run_config cfg = reliable_config();
  cfg.channel.dup_prob = 0.5;
  cfg.seed = 6;
  const auto positions = geom::uniform_points(60, geom::bbox::rect(1200, 1200), 23);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, run.outcome.params);
  for (std::size_t u = 0; u < oracle.num_nodes(); ++u) {
    EXPECT_EQ(ids(run.outcome.nodes[u]), ids(oracle.nodes[u])) << "node " << u;
  }
}

TEST(ProtocolAgent, JitteredDeliveryStillMatchesOracle) {
  protocol_run_config cfg = reliable_config();
  cfg.channel.jitter_max = 0.05;  // well inside the 0.5 round timeout
  cfg.seed = 7;
  const auto positions = geom::uniform_points(50, geom::bbox::rect(1000, 1000), 29);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, run.outcome.params);
  for (std::size_t u = 0; u < oracle.num_nodes(); ++u) {
    EXPECT_EQ(ids(run.outcome.nodes[u]), ids(oracle.nodes[u])) << "node " << u;
  }
}

TEST(ProtocolAgent, DirectionNoiseKeepsConnectivity) {
  // Bounded AoA noise changes which cones look covered but, with the
  // symmetric closure, mild noise does not break connectivity in
  // practice (sensitivity knob for the substitution in DESIGN.md).
  protocol_run_config cfg = reliable_config();
  cfg.direction_noise = 0.02;
  cfg.seed = 8;
  const auto positions = geom::uniform_points(80, geom::bbox::rect(1500, 1500), 31);
  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const auto gr = graph::build_max_power_graph(positions, pm);
  EXPECT_TRUE(graph::same_connectivity(run.outcome.symmetric_closure(), gr));
}

TEST(ProtocolAgent, MessageCountsScaleWithLevels) {
  const auto positions = geom::uniform_points(50, geom::bbox::rect(1200, 1200), 37);
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  std::size_t total_levels = 0;
  for (const auto& n : run.outcome.nodes) total_levels += n.level_powers.size();
  EXPECT_EQ(run.stats.broadcasts, total_levels);  // one Hello per level
  EXPECT_GT(run.stats.unicasts, 0u);              // acks flowed
  EXPECT_GT(run.completion_time, 0.0);
}

TEST(ProtocolAgent, TwoIsolatedNodesFinish) {
  const std::vector<vec2> positions{{0, 0}, {5000, 5000}};
  const protocol_run_result run = run_protocol(positions, pm, reliable_config());
  for (const auto& n : run.outcome.nodes) {
    EXPECT_TRUE(n.boundary);
    EXPECT_TRUE(n.neighbors.empty());
  }
}

}  // namespace
}  // namespace cbtc::proto
