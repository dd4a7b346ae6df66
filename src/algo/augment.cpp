#include "algo/augment.h"

#include <limits>
#include <vector>

#include "graph/euclidean.h"
#include "graph/robustness.h"
#include "graph/union_find.h"

namespace cbtc::algo {

namespace {

/// The sides of `g` plus `added` once edge `cut` is gone: two nodes
/// share a union-find root iff they stay connected without the cut.
graph::union_find split_without(const graph::undirected_graph& g,
                                const std::vector<graph::edge>& added, const graph::edge& cut) {
  graph::union_find sides(g.num_nodes());
  for (graph::node_id u = 0; u < g.num_nodes(); ++u) {
    for (const graph::node_id v : g.neighbors(u)) {
      if (u < v && !(u == cut.u && v == cut.v)) sides.unite(u, v);
    }
  }
  for (const graph::edge& e : added) sides.unite(e.u, e.v);
  return sides;
}

}  // namespace

augment_result augment_bridge_resilience(const graph::undirected_graph& topology,
                                         std::span<const geom::vec2> positions, double max_range) {
  augment_result res;
  res.topology = topology;
  // G_R depends on R alone; the path-loss exponent is immaterial. Its
  // edges are listed once: every pass scans the same candidates.
  const std::vector<graph::edge> candidates =
      graph::build_max_power_graph(positions, radio::power_model(2.0, max_range)).edges();

  // Iterate until no avoidable bridge remains. Each added edge kills at
  // least one bridge, so this terminates in O(#bridges) rounds.
  for (;;) {
    const std::vector<graph::edge> current_bridges = graph::bridges(res.topology);
    std::vector<graph::edge> added;  // this round's fixes, in the order they were found
    std::size_t unavoidable = 0;

    for (const graph::edge& bridge : current_bridges) {
      // Recompute the split for each bridge against the *current*
      // topology (earlier fixes may have already covered this one).
      graph::union_find sides = split_without(res.topology, added, bridge);
      if (sides.same(bridge.u, bridge.v)) continue;  // no longer a bridge

      // Shortest G_R edge (other than the bridge) crossing the cut. Any
      // other edge of the current topology joins nodes on one side.
      graph::edge best{graph::invalid_node, graph::invalid_node};
      double best_len = std::numeric_limits<double>::infinity();
      for (const graph::edge& cand : candidates) {
        if (cand == bridge || sides.same(cand.u, cand.v)) continue;
        const double len = graph::edge_length(positions, cand.u, cand.v);
        if (len < best_len) {
          best_len = len;
          best = cand;
        }
      }
      if (best.u == graph::invalid_node) {
        ++unavoidable;  // G_R itself has no bypass for this cut
        continue;
      }
      added.push_back(best);
    }

    if (added.empty()) {
      res.unavoidable_bridges = unavoidable;
      break;
    }
    res.edges_added += added.size();
    std::vector<graph::edge> edges = res.topology.edges();
    edges.insert(edges.end(), added.begin(), added.end());
    res.topology = graph::undirected_graph::from_edges(res.topology.num_nodes(), edges);
  }
  return res;
}

}  // namespace cbtc::algo
