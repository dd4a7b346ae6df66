// Parameterized protocol-vs-oracle conformance sweep: the distributed
// growing phase must match the centralized specification across alpha
// values, growth factors, network densities, and benign channel
// variation; and must keep terminating + preserving connectivity under
// hostile channels.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algo/oracle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"
#include "proto/runner.h"
#include "radio/power_model.h"

namespace cbtc::proto {
namespace {

const radio::power_model pm(2.0, 500.0);

struct sweep_case {
  std::uint64_t seed;
  std::size_t nodes;
  double alpha;
  double increase_factor;
  double jitter;
};

std::string sweep_name(const ::testing::TestParamInfo<sweep_case>& info) {
  const sweep_case& c = info.param;
  return "s" + std::to_string(c.seed) + "_n" + std::to_string(c.nodes) + "_a" +
         std::to_string(static_cast<int>(c.alpha * 100)) + "_f" +
         std::to_string(static_cast<int>(c.increase_factor * 10)) + "_j" +
         std::to_string(static_cast<int>(c.jitter * 1000));
}

class ProtocolConformance : public ::testing::TestWithParam<sweep_case> {};

TEST_P(ProtocolConformance, NeighborSetsMatchOracle) {
  const sweep_case& c = GetParam();
  const auto positions = geom::uniform_points(c.nodes, geom::bbox::rect(1300, 1300), c.seed);

  protocol_run_config cfg;
  cfg.agent.params.alpha = c.alpha;
  cfg.agent.params.increase_factor = c.increase_factor;
  cfg.agent.round_timeout = 0.5;
  cfg.channel.base_delay = 0.01;
  cfg.channel.jitter_max = c.jitter;
  cfg.seed = c.seed;

  const protocol_run_result run = run_protocol(positions, pm, cfg);
  const algo::cbtc_result oracle = algo::run_cbtc(positions, pm, cfg.agent.params);

  for (std::size_t u = 0; u < positions.size(); ++u) {
    std::set<graph::node_id> got, want;
    for (const auto& r : run.outcome.nodes[u].neighbors) got.insert(r.id);
    for (const auto& r : oracle.nodes[u].neighbors) want.insert(r.id);
    ASSERT_EQ(got, want) << "node " << u;
    EXPECT_EQ(run.outcome.nodes[u].boundary, oracle.nodes[u].boundary) << "node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProtocolConformance,
    ::testing::Values(sweep_case{1, 50, algo::alpha_five_pi_six, 2.0, 0.0},
                      sweep_case{2, 50, algo::alpha_two_pi_three, 2.0, 0.0},
                      sweep_case{3, 50, geom::pi / 2.0, 2.0, 0.0},
                      sweep_case{4, 50, algo::alpha_five_pi_six, 1.5, 0.0},
                      sweep_case{5, 50, algo::alpha_five_pi_six, 4.0, 0.0},
                      sweep_case{6, 120, algo::alpha_five_pi_six, 2.0, 0.0},
                      sweep_case{7, 120, algo::alpha_two_pi_three, 2.0, 0.05},
                      sweep_case{8, 30, algo::alpha_five_pi_six, 2.0, 0.1},
                      sweep_case{9, 80, algo::alpha_two_pi_three, 3.0, 0.02}),
    sweep_name);

// Hostile-channel sweep: heavy loss with retries. Termination and
// closure connectivity are required; exact oracle equality is not
// (hellos can vanish), so the assertions are liveness + safety.
class LossyChannel : public ::testing::TestWithParam<double> {};

TEST_P(LossyChannel, TerminatesAndClosureKeepsInvariants) {
  const double drop = GetParam();
  const auto positions = geom::uniform_points(60, geom::bbox::rect(1200, 1200), 99);

  protocol_run_config cfg;
  cfg.agent.round_timeout = 0.5;
  cfg.agent.retries_per_level = 4;
  cfg.channel.drop_prob = drop;
  cfg.seed = 7;

  const protocol_run_result run = run_protocol(positions, pm, cfg);
  EXPECT_EQ(run.outcome.num_nodes(), positions.size());
  // Safety: everything discovered is a real G_R neighbor.
  const auto gr = graph::build_max_power_graph(positions, pm);
  for (std::size_t u = 0; u < positions.size(); ++u) {
    for (const auto& r : run.outcome.nodes[u].neighbors) {
      EXPECT_TRUE(gr.has_edge(static_cast<graph::node_id>(u), r.id))
          << "drop=" << drop << " node " << u << " ghost neighbor " << r.id;
    }
  }
  // Discovered subset implies the closure is a subgraph of G_R; with
  // retries, moderate loss should still find most neighborhoods.
  if (drop <= 0.3) {
    EXPECT_TRUE(graph::same_connectivity(run.outcome.symmetric_closure(), gr)) << "drop=" << drop;
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossyChannel, ::testing::Values(0.05, 0.15, 0.3, 0.6));

// Overshoot property of discrete growth: the final power never exceeds
// increase_factor times the idealized (continuous) requirement — the
// factor-2 bound stated in Section 2 for Increase(p) = 2p.
class OvershootBound : public ::testing::TestWithParam<double> {};

TEST_P(OvershootBound, DiscreteWithinFactorOfContinuous) {
  const double factor = GetParam();
  const auto positions = geom::uniform_points(90, geom::bbox::rect(1400, 1400), 55);

  algo::cbtc_params discrete;
  discrete.increase_factor = factor;
  const algo::cbtc_result d = algo::run_cbtc(positions, pm, discrete);

  algo::cbtc_params continuous;
  continuous.mode = algo::growth_mode::continuous;
  const algo::cbtc_result c = algo::run_cbtc(positions, pm, continuous);

  const double p0 = pm.required_power(pm.max_range() / 16.0);
  for (std::size_t u = 0; u < positions.size(); ++u) {
    const double ideal = std::max(c.nodes[u].final_power, p0);
    EXPECT_LE(d.nodes[u].final_power, factor * ideal * (1.0 + 1e-9))
        << "factor=" << factor << " node " << u;
    EXPECT_GE(d.nodes[u].final_power + 1e-9, std::min(c.nodes[u].final_power, pm.max_power()))
        << "factor=" << factor << " node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, OvershootBound, ::testing::Values(1.3, 2.0, 3.0, 4.0));

}  // namespace
}  // namespace cbtc::proto
