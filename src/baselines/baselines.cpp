#include "baselines/baselines.h"

#include <algorithm>
#include <vector>

#include "geom/angle.h"
#include "geom/spatial_grid.h"
#include "graph/euclidean.h"
#include "graph/union_find.h"

namespace cbtc::baselines {

using graph::node_id;

// The baselines are unit-disk constructions over G_R, which depends on
// R alone: any path-loss exponent (2.0 below) builds the same graph.

graph::undirected_graph euclidean_mst(std::span<const geom::vec2> positions, double max_range) {
  struct weighted {
    double len_sq;
    node_id u, v;
  };
  std::vector<weighted> edges;
  const graph::undirected_graph gr =
      graph::build_max_power_graph(positions, radio::power_model(2.0, max_range));
  for (const graph::edge& e : gr.edges()) {
    edges.push_back({geom::distance_sq(positions[e.u], positions[e.v]), e.u, e.v});
  }
  std::sort(edges.begin(), edges.end(), [](const weighted& a, const weighted& b) {
    return a.len_sq < b.len_sq || (a.len_sq == b.len_sq && std::pair{a.u, a.v} < std::pair{b.u, b.v});
  });

  graph::undirected_graph mst(positions.size());
  graph::union_find uf(positions.size());
  for (const weighted& e : edges) {
    if (uf.unite(e.u, e.v)) mst.add_edge(e.u, e.v);
  }
  return mst;
}

graph::undirected_graph relative_neighborhood_graph(std::span<const geom::vec2> positions,
                                                    double max_range) {
  const graph::undirected_graph gr =
      graph::build_max_power_graph(positions, radio::power_model(2.0, max_range));
  graph::undirected_graph rng(positions.size());
  for (const graph::edge& e : gr.edges()) {
    const double d_uv = geom::distance_sq(positions[e.u], positions[e.v]);
    bool blocked = false;
    // A witness must be closer to both endpoints than they are to each
    // other; any such witness is within range of u, so scanning u's
    // G_R neighborhood suffices.
    for (node_id w : gr.neighbors(e.u)) {
      if (w == e.v) continue;
      if (geom::distance_sq(positions[e.u], positions[w]) < d_uv &&
          geom::distance_sq(positions[e.v], positions[w]) < d_uv) {
        blocked = true;
        break;
      }
    }
    if (!blocked) rng.add_edge(e.u, e.v);
  }
  return rng;
}

graph::undirected_graph gabriel_graph(std::span<const geom::vec2> positions, double max_range) {
  const graph::undirected_graph gr =
      graph::build_max_power_graph(positions, radio::power_model(2.0, max_range));
  graph::undirected_graph gg(positions.size());
  for (const graph::edge& e : gr.edges()) {
    const geom::vec2 mid = (positions[e.u] + positions[e.v]) / 2.0;
    const double r_sq = geom::distance_sq(positions[e.u], positions[e.v]) / 4.0;
    bool blocked = false;
    // A witness inside the diameter circle is within d(u,v) <= R of u.
    for (node_id w : gr.neighbors(e.u)) {
      if (w == e.v) continue;
      if (geom::distance_sq(positions[w], mid) < r_sq) {
        blocked = true;
        break;
      }
    }
    if (!blocked) gg.add_edge(e.u, e.v);
  }
  return gg;
}

graph::undirected_graph yao_graph(std::span<const geom::vec2> positions, double max_range,
                                  std::size_t cones) {
  graph::undirected_graph yao(positions.size());
  if (cones == 0 || positions.empty()) return yao;
  const geom::spatial_grid grid(positions, max_range);
  const double sector = geom::two_pi / static_cast<double>(cones);

  std::vector<geom::point_index> hits;
  std::vector<node_id> best(cones);
  std::vector<double> best_d(cones);
  for (node_id u = 0; u < positions.size(); ++u) {
    std::fill(best.begin(), best.end(), graph::invalid_node);
    std::fill(best_d.begin(), best_d.end(), 0.0);
    hits.clear();
    grid.query_radius_into(positions[u], max_range, u, hits);
    for (geom::point_index v : hits) {
      const geom::vec2 d = positions[v] - positions[u];
      const auto c = std::min(static_cast<std::size_t>(d.bearing() / sector), cones - 1);
      const double dist = d.norm_sq();
      if (best[c] == graph::invalid_node || dist < best_d[c] ||
          (dist == best_d[c] && v < best[c])) {
        best[c] = v;
        best_d[c] = dist;
      }
    }
    for (node_id v : best) {
      if (v != graph::invalid_node) yao.add_edge(u, v);
    }
  }
  return yao;
}

graph::undirected_graph knn_graph(std::span<const geom::vec2> positions, double max_range,
                                  std::size_t k) {
  graph::undirected_graph knn(positions.size());
  if (positions.empty() || k == 0) return knn;
  const geom::spatial_grid grid(positions, max_range);
  std::vector<geom::point_index> hits;
  for (node_id u = 0; u < positions.size(); ++u) {
    hits.clear();
    grid.query_radius_into(positions[u], max_range, u, hits);
    std::sort(hits.begin(), hits.end(), [&](geom::point_index a, geom::point_index b) {
      const double da = geom::distance_sq(positions[u], positions[a]);
      const double db = geom::distance_sq(positions[u], positions[b]);
      return da < db || (da == db && a < b);
    });
    const std::size_t take = std::min(k, hits.size());
    for (std::size_t i = 0; i < take; ++i) knn.add_edge(u, hits[i]);
  }
  return knn;
}

}  // namespace cbtc::baselines
