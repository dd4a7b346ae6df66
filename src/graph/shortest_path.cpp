#include "graph/shortest_path.h"

#include <cmath>

namespace cbtc::graph {

std::vector<double> dijkstra(const undirected_graph& g, node_id from, const edge_cost_fn& cost) {
  std::vector<double> dist;
  dijkstra_heap heap;
  dijkstra_into(g, from, cost, dist, heap, [](node_id, node_id) {});
  return dist;
}

shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                 const edge_cost_fn& cost) {
  shortest_path_tree tree;
  tree.parent.assign(g.num_nodes(), invalid_node);
  dijkstra_heap heap;
  dijkstra_into(g, from, cost, tree.dist, heap,
                [&tree](node_id v, node_id u) { tree.parent[v] = u; });
  return tree;
}

edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions) {
  return [&positions](node_id u, node_id v) {
    return geom::distance(positions[u], positions[v]);
  };
}

edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent) {
  return [&positions, exponent](node_id u, node_id v) {
    return std::pow(geom::distance(positions[u], positions[v]), exponent);
  };
}

}  // namespace cbtc::graph
