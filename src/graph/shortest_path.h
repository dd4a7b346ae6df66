// Weighted shortest paths (Dijkstra) with pluggable edge costs.
//
// Used to measure *power stretch*: the paper's competitiveness
// discussion compares the power of the most power-efficient route in
// G_alpha against the one in G_R, with per-hop cost p(d) = d^n.
//
// One loop serves every caller (stretch, dijkstra(), dijkstra_tree and
// the lifetime engine's routing): an indexed 4-ary min-heap with
// decrease-key, settling nodes in (distance, node id) order. Distances
// and parent pointers are therefore a pure function of the adjacency
// and the costs, independent of how the heap is laid out. A caller
// with a cheap lower bound on its edge costs (power stretch under
// d^2) passes it to skip relaxations that cannot improve.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace cbtc::graph {

/// Cost of traversing edge {u, v}; must be non-negative.
using edge_cost_fn = std::function<double(node_id, node_id)>;

/// Storage of a Dijkstra run's frontier: an indexed 4-ary min-heap
/// ordered by (distance, node id), plus each queued node's slot in it
/// (for decrease-key). An entry carries a copy of its node's distance
/// so a sift compares within the heap array instead of reaching into
/// the distance row. Reusable across runs: once both arrays have grown
/// to the graph's size a run allocates nothing.
struct dijkstra_heap {
  struct entry {
    double dist;
    node_id id;
  };
  std::vector<entry> nodes;   // frontier in heap order
  std::vector<node_id> slot;  // slot[v] = v's index in `nodes` while v is queued
};

/// No lower bound on an edge's cost (the default of dijkstra_into).
struct no_cost_bound {
  double operator()(node_id, node_id) const { return 0.0; }
};

/// The one Dijkstra loop. `cost` is any callable (settled, neighbor)
/// -> double >= 0, taken by type so it inlines into the relaxation;
/// `improved(v, u)` runs after every strict improvement of dist[v] via
/// u. `dist` and `heap` are caller-owned so a caller running many
/// sources reuses them. Nodes settle in (dist, id) order: the frontier
/// node of least distance, ties to the lower id; each node is queued at
/// most once and moved up in place when its distance improves.
///
/// `bound(u, v)` is an optional cheap lower bound on cost(u, v), with
/// 0 <= bound <= cost. A neighbor already at or below d + bound (d the
/// settled distance) is skipped before its cost is evaluated: rounding
/// is monotone, so d + cost could not improve it either, and the
/// distances are exactly those of the full relaxation. The skip is also
/// how the loop tells queued from unseen nodes without clearing `slot`:
/// a node above the settled distance is queued iff its distance is
/// finite.
template <class Cost, class Improved, class Bound = no_cost_bound>
void dijkstra_into(const undirected_graph& g, node_id from, const Cost& cost,
                   std::vector<double>& dist, dijkstra_heap& heap, const Improved& improved,
                   const Bound& bound = {}) {
  using entry = dijkstra_heap::entry;
  constexpr double inf = std::numeric_limits<double>::infinity();
  dist.assign(g.num_nodes(), inf);
  if (heap.slot.size() < g.num_nodes()) heap.slot.resize(g.num_nodes());
  std::vector<entry>& h = heap.nodes;
  node_id* const slot = heap.slot.data();
  const auto before = [](const entry& a, const entry& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
  };
  // Moves e up from index i (a hole) to its place.
  const auto sift_up = [&](std::size_t i, const entry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, h[parent])) break;
      h[i] = h[parent];
      slot[h[i].id] = static_cast<node_id>(i);
      i = parent;
    }
    h[i] = e;
    slot[e.id] = static_cast<node_id>(i);
  };
  // Moves e down from the root hole to its place.
  const auto sift_down = [&](const entry e) {
    const std::size_t m = h.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= m) break;
      const std::size_t last = std::min(first + 4, m);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(h[c], h[best])) best = c;
      }
      if (!before(h[best], e)) break;
      h[i] = h[best];
      slot[h[i].id] = static_cast<node_id>(i);
      i = best;
    }
    h[i] = e;
    slot[e.id] = static_cast<node_id>(i);
  };

  h.clear();
  dist[from] = 0.0;
  h.push_back({0.0, from});
  slot[from] = 0;
  while (!h.empty()) {
    const auto [d, u] = h.front();
    const entry tail = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(tail);
    for (const node_id v : g.neighbors(u)) {
      if (dist[v] <= d + bound(u, v)) continue;
      const double nd = d + cost(u, v);
      if (nd < dist[v]) {
        const bool queued = dist[v] != inf;
        dist[v] = nd;
        improved(v, u);
        if (queued) {
          sift_up(slot[v], {nd, v});
        } else {
          h.push_back({nd, v});
          sift_up(h.size() - 1, {nd, v});
        }
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
/// `<` improvement and nodes settle in (distance, node id) order, so
/// the tree is deterministic for a given graph and cost function. The
/// cost callback is invoked as cost(settled, neighbor).
[[nodiscard]] shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                               const edge_cost_fn& cost);

/// Edge cost equal to Euclidean length (hop-length metric).
[[nodiscard]] edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions);

/// Edge cost equal to transmission power d^exponent (energy metric).
[[nodiscard]] edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent);

}  // namespace cbtc::graph
