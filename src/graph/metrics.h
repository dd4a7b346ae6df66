// Topology metrics reported in the paper's evaluation (Section 5).
//
// Table 1 reports, per configuration, the *average node degree* and the
// *average radius*, where a node's radius is the distance to its
// farthest neighbor in the final topology (rad_u in the paper's
// notation). Stretch metrics support the competitiveness discussion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Mean degree over all nodes (0 for an empty graph).
[[nodiscard]] double average_degree(const undirected_graph& g);

/// Distance from `u` to its farthest neighbor; `isolated_radius` for
/// nodes with no incident edge (a boundary node that found nobody still
/// broadcasts, so callers typically pass the max range R).
[[nodiscard]] double node_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                 node_id u, double isolated_radius = 0.0);

/// Mean of node_radius over all nodes.
[[nodiscard]] double average_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                    double isolated_radius = 0.0);

/// Largest node radius (the max transmission range anyone needs).
[[nodiscard]] double max_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                double isolated_radius = 0.0);

/// Histogram of degrees: index d holds the number of nodes of degree d.
[[nodiscard]] std::vector<std::size_t> degree_histogram(const undirected_graph& g);

/// Mean total transmit power with per-node power p(radius) = radius^exponent.
[[nodiscard]] double average_power(const undirected_graph& g, std::span<const geom::vec2> positions,
                                   double exponent, double isolated_radius = 0.0);

struct stretch_stats {
  double mean{1.0};
  double max{1.0};
  std::size_t pairs{0};  // connected pairs measured
};

/// Power stretch of `sparse` w.r.t. `dense`: for sampled connected
/// pairs (s,t), the ratio of minimum-energy route costs (cost d^exponent
/// per hop). Sources are the evenly spaced ids 0, step, 2 step, ...
/// with step = max(1, n / sample_sources): ceil(n / step) of them,
/// which can exceed `sample_sources` (9 for n = 100 and 8 samples).
/// Pass the node count (or more) for the exact all-pairs statistic;
/// 0 samples measure nothing (pairs = 0). The (source, graph) runs fan
/// across `pool`; the ratios fold in (source, target) ascending order
/// afterwards, so the result is bitwise identical at every pool width.
///
/// Hops are priced geometrically, d^exponent, under every propagation
/// model: for per-link gains (shadowing, obstacles) this is not the
/// power either method spends on a link, so the statistic measures a
/// cost neither gain-aware CBTC nor STC optimizes. Pricing it from
/// the G_R link-power column (graph::priced_graph) is not done yet.
///
/// `label_of` (optional) says the graphs and `positions` are in a
/// relabeled space: original node u is label label_of[u]. Sources and
/// the fold stay in original ids — the same sources, and the same
/// floating-point sum sequence, as the unrelabeled call — so the
/// statistic is bitwise identical; only the Dijkstra runs walk the
/// relabeled (e.g. Morton-ordered, cache-friendly) rows.
[[nodiscard]] stretch_stats power_stretch(const undirected_graph& sparse,
                                          const undirected_graph& dense,
                                          const std::vector<geom::vec2>& positions, double exponent,
                                          std::size_t sample_sources = 32,
                                          util::thread_pool& pool = util::serial_pool(),
                                          std::span<const std::uint32_t> label_of = {});

/// Hop stretch of `sparse` w.r.t. `dense` (BFS hop counts); same
/// sampling, pooling, fold order and `label_of` contract as
/// power_stretch.
[[nodiscard]] stretch_stats hop_stretch(const undirected_graph& sparse,
                                        const undirected_graph& dense, std::size_t sample_sources = 32,
                                        util::thread_pool& pool = util::serial_pool(),
                                        std::span<const std::uint32_t> label_of = {});

}  // namespace cbtc::graph
