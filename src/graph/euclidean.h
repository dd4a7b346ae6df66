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
//
// The per-link filter already computes each link's required power
// p(d) / gain, so the gain-aware build keeps it: priced_graph is G_R
// plus that price as a column, which growth, gain-aware op3, STC and
// the engine's power pass read instead of evaluating the gain again.
// A run whose passes read no price (isotropic growth orders by
// distance) holds G_R in a priced_graph with no column.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "geom/spatial_grid.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// G_R with every link's required power p(d(u, v)) / gain(u, v), priced
/// once. `graph` is flat CSR. The column holds one entry per undirected
/// edge {u, v} (u < v), stored row by row: node u's entries
/// [up_offsets[u], up_offsets[u + 1]) follow u's up-neighbours (v > u),
/// which are the tail of its sorted row. A down-arc's price is found by
/// binary search in its lower endpoint's row. Prices are bitwise
/// symmetric (distance is a hypot and every gain is symmetric), so the
/// value priced from the lower endpoint is the one either endpoint
/// would compute. A priced_graph built from a bare graph
/// (`priced_graph{g}`) has no column: find_power answers nullopt and
/// any_link must not be called.
struct priced_graph {
  undirected_graph graph;
  std::vector<std::size_t> up_offsets{};  // num_nodes + 1 entries, or none without a column
  std::vector<double> up_power{};

  [[nodiscard]] bool has_prices() const { return !up_offsets.empty(); }

  /// u's up-neighbours (v > u), aligned with up_powers(u).
  [[nodiscard]] std::span<const node_id> up_neighbors(node_id u) const {
    const std::span<const node_id> row = graph.neighbors(u);
    return row.last(up_offsets[u + 1] - up_offsets[u]);
  }
  [[nodiscard]] std::span<const double> up_powers(node_id u) const {
    return {up_power.data() + up_offsets[u], up_offsets[u + 1] - up_offsets[u]};
  }

  /// Required power of link {u, v}, or nullopt when it is not a G_R
  /// edge or there is no column.
  [[nodiscard]] std::optional<double> find_power(node_id u, node_id v) const;

  /// Calls pred(v, power of {u, v}) over u's row, in row order, until
  /// it returns true; returns whether it did. Up-links read the column
  /// in sequence, each down-link is one binary search.
  template <class Pred>
  bool any_link(node_id u, const Pred& pred) const {
    const std::span<const node_id> row = graph.neighbors(u);
    const std::span<const double> ups = up_powers(u);
    const std::size_t down_len = row.size() - ups.size();
    for (std::size_t i = 0; i < down_len; ++i) {
      if (pred(row[i], *find_power(row[i], u))) return true;
    }
    for (std::size_t i = 0; i < ups.size(); ++i) {
      if (pred(row[down_len + i], ups[i])) return true;
    }
    return false;
  }
};

/// Builds G_R as flat CSR adjacency: per-node candidate count via a
/// spatial grid (O(n * k) for bounded density), exclusive prefix sum,
/// parallel fill — zero per-edge sorted insertion. Under per-link
/// gains each unordered pair's (expensive) membership test runs exactly
/// once. Edge set identical for any pool width.
[[nodiscard]] undirected_graph build_max_power_graph(
    std::span<const geom::vec2> positions, const radio::link_model& link,
    util::thread_pool& pool = util::serial_pool());

/// G_R with its price column. Under per-link gains each unordered
/// pair's gain is evaluated exactly once, from its lower endpoint, and
/// the accepted pair's required power becomes its column entry;
/// isotropic links price the distance-built G_R with p(d). Identical
/// for any pool width. A run that reads no price (isotropic growth,
/// the angle op3) wraps build_max_power_graph instead:
/// `priced_graph{build_max_power_graph(positions, link, pool)}`.
[[nodiscard]] priced_graph build_priced_max_power_graph(
    std::span<const geom::vec2> positions, const radio::link_model& link,
    util::thread_pool& pool = util::serial_pool());

/// Prices an existing graph's edges with link.required_power (one call
/// per edge, from the lower endpoint). Reference path for tests and
/// for G_R built by other means.
[[nodiscard]] priced_graph price_links(undirected_graph g, std::span<const geom::vec2> positions,
                                       const radio::link_model& link,
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
