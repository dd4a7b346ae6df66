// Weighted shortest paths (Dijkstra) with pluggable edge costs.
//
// Used to measure *power stretch*: the paper's competitiveness
// discussion compares the power of the most power-efficient route in
// G_alpha against the one in G_R, with per-hop cost p(d) = d^n.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace cbtc::graph {

/// Cost of traversing edge {u, v}; must be non-negative.
using edge_cost_fn = std::function<double(node_id, node_id)>;

/// Binary min-heap storage of a Dijkstra run, ordered by (distance,
/// node id). Reusable across runs.
using dijkstra_heap = std::vector<std::pair<double, node_id>>;

/// The one Dijkstra loop. `cost` is any callable (settled, neighbor)
/// -> double >= 0, taken by type so it inlines into the relaxation;
/// `improved(v, u)` runs after every strict improvement of dist[v] via
/// u. `dist` and `heap` are caller-owned so a caller running many
/// sources reuses them: once their capacity has grown, a run allocates
/// nothing. A neighbor already at or below the settled distance is
/// skipped before its cost is evaluated — with cost >= 0 it cannot
/// improve, so the distances are exactly those of the full relaxation.
template <class Cost, class Improved>
void dijkstra_into(const undirected_graph& g, node_id from, const Cost& cost,
                   std::vector<double>& dist, dijkstra_heap& heap, const Improved& improved) {
  dist.assign(g.num_nodes(), std::numeric_limits<double>::infinity());
  heap.clear();
  const std::greater<> later;
  dist[from] = 0.0;
  heap.emplace_back(0.0, from);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;
    for (const node_id v : g.neighbors(u)) {
      if (dist[v] <= d) continue;
      const double nd = d + cost(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        improved(v, u);
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}

/// Dijkstra from `from`. Unreachable nodes get +infinity.
[[nodiscard]] std::vector<double> dijkstra(const undirected_graph& g, node_id from,
                                           const edge_cost_fn& cost);

/// Shortest-path tree rooted at the Dijkstra source: `parent[u]` is the
/// next hop from `u` toward the root (invalid_node for the root itself
/// and for unreachable nodes, which keep dist = +infinity).
struct shortest_path_tree {
  std::vector<double> dist;
  std::vector<node_id> parent;
};

/// Dijkstra from `from` with parent pointers. Relaxations use strict
/// `<` improvement and the heap orders ties by (distance, node id), so
/// the tree is deterministic for a given graph and cost function. The
/// cost callback is invoked as cost(settled, neighbor).
[[nodiscard]] shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                               const edge_cost_fn& cost);

/// Edge cost equal to Euclidean length (hop-length metric).
[[nodiscard]] edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions);

/// Edge cost equal to transmission power d^exponent (energy metric).
[[nodiscard]] edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent);

}  // namespace cbtc::graph
