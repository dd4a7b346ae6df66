// The max-power graph G_R and Euclidean edge helpers.
//
// G_R = (V, E) with E = {(u,v) : d(u,v) <= R} is the graph induced when
// every node transmits at maximum power (Section 1 of the paper). It is
// the connectivity baseline every topology-control output is compared
// against. Under a non-uniform propagation model the membership test
// generalizes to "the link closes at maximum power": the construction
// prunes by the maximum feasible link length, then filters per link.
// An isotropic link (any radio::power_model converts to one) is the
// plain distance test.
#pragma once

#include <span>
#include <vector>

#include "geom/spatial_grid.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Builds G_R as flat CSR adjacency: per-node candidate count via a
/// spatial grid (O(n * k) for bounded density), exclusive prefix sum,
/// parallel fill — zero per-edge sorted insertion. Under per-link
/// gains each unordered pair's (expensive) membership test runs exactly
/// once. Edge set identical for any pool width.
[[nodiscard]] undirected_graph build_max_power_graph(
    std::span<const geom::vec2> positions, const radio::link_model& link,
    util::thread_pool& pool = util::serial_pool());

/// Reference O(n^2) construction, used to cross-check the grid path.
[[nodiscard]] undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                                           double max_range);

/// Reference O(n^2) construction of the gain-aware G_R.
[[nodiscard]] undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                                           const radio::link_model& link);

/// Length of edge {u, v} under the given layout.
[[nodiscard]] double edge_length(std::span<const geom::vec2> positions, node_id u, node_id v);

}  // namespace cbtc::graph
