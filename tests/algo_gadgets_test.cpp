#include "algo/gadgets.h"

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "algo/params.h"
#include "geom/angle.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

using geom::pi;

cbtc_params continuous_params(double alpha) {
  cbtc_params p;
  p.alpha = alpha;
  p.mode = growth_mode::continuous;  // the proofs' idealized growth
  return p;
}

// ------------------------------------------------- Example 2.1 (Fig 2)

TEST(Example21, ConstructionValidates) {
  for (double alpha : {2.2, 2.4, alpha_five_pi_six}) {
    const auto g = gadgets::make_example21(alpha);
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(g.positions.size(), 5u);
  }
}

TEST(Example21, RejectsOutOfRangeAlpha) {
  EXPECT_THROW(gadgets::make_example21(alpha_two_pi_three), std::invalid_argument);
  EXPECT_THROW(gadgets::make_example21(alpha_five_pi_six + 0.05), std::invalid_argument);
}

TEST(Example21, NAlphaIsAsymmetric) {
  // The headline claim: (v, u0) in N_alpha but (u0, v) not in N_alpha.
  const auto g = gadgets::make_example21(alpha_five_pi_six);
  const radio::power_model pm(2.0, g.max_range);
  const cbtc_result r = run_cbtc(g.positions, pm, continuous_params(g.alpha));

  EXPECT_TRUE(r.nodes[g.v].knows(g.u0));    // v discovered u0
  EXPECT_FALSE(r.nodes[g.u0].knows(g.v));   // u0 stopped before reaching v
  // u0 discovered exactly u1, u2, u3.
  EXPECT_TRUE(r.nodes[g.u0].knows(g.u1));
  EXPECT_TRUE(r.nodes[g.u0].knows(g.u2));
  EXPECT_TRUE(r.nodes[g.u0].knows(g.u3));
  // v found nothing else: it is a boundary node at max power.
  EXPECT_EQ(r.nodes[g.v].neighbors.size(), 1u);
  EXPECT_TRUE(r.nodes[g.v].boundary);
  EXPECT_DOUBLE_EQ(r.nodes[g.v].final_power, pm.max_power());
}

TEST(Example21, SymmetricClosureRestoresTheEdge) {
  // Why E_alpha must be the symmetric *closure*: without it u0 and v
  // would be disconnected even though (u0, v) is in G_R.
  const auto g = gadgets::make_example21(alpha_five_pi_six);
  const radio::power_model pm(2.0, g.max_range);
  const cbtc_result r = run_cbtc(g.positions, pm, continuous_params(g.alpha));

  const auto closure = r.symmetric_closure();
  EXPECT_TRUE(closure.has_edge(g.u0, g.v));
  const auto gr = graph::build_max_power_graph(g.positions, pm);
  EXPECT_TRUE(graph::same_connectivity(closure, gr));

  // The symmetric core drops the (u0,v) edge — for alpha > 2*pi/3 that
  // breaks connectivity, which is why op2 is restricted to <= 2*pi/3.
  const auto core = r.symmetric_core();
  EXPECT_FALSE(core.has_edge(g.u0, g.v));
  EXPECT_FALSE(graph::same_connectivity(core, gr));
}

TEST(Example21, HoldsAcrossTheAlphaWindow) {
  // The construction works for all 2*pi/3 < alpha <= 5*pi/6.
  for (double alpha = alpha_two_pi_three + 0.05; alpha <= alpha_five_pi_six;
       alpha += 0.05) {
    const auto g = gadgets::make_example21(alpha);
    const radio::power_model pm(2.0, g.max_range);
    const cbtc_result r = run_cbtc(g.positions, pm, continuous_params(alpha));
    EXPECT_TRUE(r.nodes[g.v].knows(g.u0)) << "alpha=" << alpha;
    EXPECT_FALSE(r.nodes[g.u0].knows(g.v)) << "alpha=" << alpha;
  }
}

TEST(Example21, PaperDistanceInequalities) {
  // d(u1, v) > R > d(u0, u1), as derived in the example.
  const auto g = gadgets::make_example21(alpha_five_pi_six);
  const auto& P = g.positions;
  EXPECT_GT(geom::distance(P[g.u1], P[g.v]), g.max_range);
  EXPECT_LT(geom::distance(P[g.u0], P[g.u1]), g.max_range);
  EXPECT_GT(geom::distance(P[g.u2], P[g.v]), g.max_range);
  EXPECT_NEAR(geom::distance(P[g.u0], P[g.u3]), g.max_range / 2.0, 1e-9);
}

// ---------------------------------------------- Figure 5 (Theorem 2.4)

TEST(Figure5, ConstructionValidates) {
  for (double eps : {0.01, 0.05, 0.1, 0.3}) {
    const auto g = gadgets::make_figure5(eps);
    EXPECT_TRUE(g.validate()) << "eps=" << eps;
    EXPECT_EQ(g.positions.size(), 8u);
    EXPECT_NEAR(g.alpha, alpha_five_pi_six + eps, 1e-12);
  }
}

TEST(Figure5, RejectsBadEps) {
  EXPECT_THROW(gadgets::make_figure5(0.0), std::invalid_argument);
  EXPECT_THROW(gadgets::make_figure5(-0.1), std::invalid_argument);
  EXPECT_THROW(gadgets::make_figure5(pi / 6.0), std::invalid_argument);
}

TEST(Figure5, GRIsConnected) {
  const auto g = gadgets::make_figure5(0.05);
  const radio::power_model pm(2.0, g.max_range);
  const auto gr = graph::build_max_power_graph(g.positions, pm);
  EXPECT_TRUE(graph::is_connected(gr));
  // And (u0, v0) is the *only* inter-cluster edge.
  EXPECT_TRUE(gr.has_edge(g.u0, g.v0));
  std::size_t cross = 0;
  for (const graph::edge& e : gr.edges()) {
    const bool u_side_u = e.u <= g.u3;
    const bool v_side_u = e.v <= g.u3;
    if (u_side_u != v_side_u) ++cross;
  }
  EXPECT_EQ(cross, 1u);
}

TEST(Figure5, CbtcDisconnectsAboveThreshold) {
  // Theorem 2.4: for alpha = 5*pi/6 + eps the algorithm's G_alpha loses
  // the (u0, v0) bridge and the clusters separate.
  for (double eps : {0.02, 0.1, 0.25}) {
    const auto g = gadgets::make_figure5(eps);
    const radio::power_model pm(2.0, g.max_range);
    const cbtc_result r = run_cbtc(g.positions, pm, continuous_params(g.alpha));

    EXPECT_FALSE(r.nodes[g.u0].knows(g.v0)) << "eps=" << eps;
    EXPECT_FALSE(r.nodes[g.v0].knows(g.u0)) << "eps=" << eps;
    EXPECT_LT(r.nodes[g.u0].final_power, pm.max_power());
    EXPECT_LT(r.nodes[g.v0].final_power, pm.max_power());

    const auto closure = r.symmetric_closure();
    EXPECT_FALSE(closure.has_edge(g.u0, g.v0));
    const auto gr = graph::build_max_power_graph(g.positions, pm);
    EXPECT_FALSE(graph::same_connectivity(closure, gr)) << "eps=" << eps;
    EXPECT_FALSE(graph::reachable(closure, g.u0, g.v0)) << "eps=" << eps;
  }
}

TEST(Figure5, SameLayoutConnectedAtFivePiSix) {
  // The same 8 nodes run with alpha = 5*pi/6 stay connected — the
  // disconnection is caused by alpha, not by the layout: at 5*pi/6 the
  // gap between u1 and u2 (constructed to be ~5*pi/6 + eps wide) now
  // exceeds alpha, so u0 keeps growing and reaches v0.
  const auto g = gadgets::make_figure5(0.2);
  const radio::power_model pm(2.0, g.max_range);
  const cbtc_result r = run_cbtc(g.positions, pm, continuous_params(alpha_five_pi_six));
  const auto closure = r.symmetric_closure();
  const auto gr = graph::build_max_power_graph(g.positions, pm);
  EXPECT_TRUE(graph::same_connectivity(closure, gr));
  EXPECT_TRUE(graph::reachable(closure, g.u0, g.v0));
}

TEST(Figure5, HubsCoverWithoutCrossEdge) {
  // The construction's essence: u0's three satellites close every
  // alpha-cone, so u0 never needs v0.
  const auto g = gadgets::make_figure5(0.1);
  const auto& P = g.positions;
  const double dirs[] = {(P[g.u1] - P[g.u0]).bearing(), (P[g.u2] - P[g.u0]).bearing(),
                         (P[g.u3] - P[g.u0]).bearing()};
  EXPECT_FALSE(geom::has_alpha_gap(dirs, g.alpha));
  EXPECT_TRUE(geom::has_alpha_gap(dirs, alpha_five_pi_six));
}

}  // namespace
}  // namespace cbtc::algo
