#include "graph/interference.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "geom/spatial_grid.h"

namespace cbtc::graph {

namespace {

/// Reusable buffers of disk_union_count: one set per reduction block.
struct disk_scratch {
  std::vector<geom::point_index> in_u;
  std::vector<geom::point_index> in_v;
  std::vector<geom::point_index> all;
};

std::size_t disk_union_count(std::span<const geom::vec2> positions, const geom::spatial_grid& grid,
                             node_id u, node_id v, disk_scratch& scratch) {
  const double len = geom::distance(positions[u], positions[v]);
  scratch.in_u.clear();
  scratch.in_v.clear();
  scratch.all.clear();
  grid.query_radius_into(positions[u], len, geom::spatial_grid::npos, scratch.in_u);
  grid.query_radius_into(positions[v], len, geom::spatial_grid::npos, scratch.in_v);
  std::sort(scratch.in_u.begin(), scratch.in_u.end());
  std::sort(scratch.in_v.begin(), scratch.in_v.end());
  std::set_union(scratch.in_u.begin(), scratch.in_u.end(), scratch.in_v.begin(),
                 scratch.in_v.end(), std::back_inserter(scratch.all));
  // Exclude the endpoints themselves.
  const auto& all = scratch.all;
  return all.size() - static_cast<std::size_t>(std::binary_search(all.begin(), all.end(), u)) -
         static_cast<std::size_t>(std::binary_search(all.begin(), all.end(), v));
}

}  // namespace

std::size_t edge_interference(const undirected_graph& g, std::span<const geom::vec2> positions,
                              node_id u, node_id v) {
  (void)g;
  const double len = geom::distance(positions[u], positions[v]);
  const geom::spatial_grid grid(positions, std::max(len, 1.0));
  disk_scratch scratch;
  return disk_union_count(positions, grid, u, v, scratch);
}

interference_stats topology_interference(const undirected_graph& g,
                                         std::span<const geom::vec2> positions,
                                         util::thread_pool& pool) {
  interference_stats stats;
  stats.edges = g.num_edges();
  if (stats.edges == 0 || positions.empty()) return stats;

  // Every edge {u, v} is visited once, from its smaller endpoint u.
  const double max_len = pool.reduce<double>(
      g.num_nodes(), 1.0,
      [&](std::size_t lo, std::size_t hi) {
        double part = 1.0;
        for (std::size_t u = lo; u < hi; ++u) {
          for (const node_id v : g.neighbors(static_cast<node_id>(u))) {
            if (v > u) part = std::max(part, geom::distance(positions[u], positions[v]));
          }
        }
        return part;
      },
      [](double& total, const double& part) { total = std::max(total, part); });
  const geom::spatial_grid grid(positions, max_len);

  struct coverage_partial {
    std::size_t sum{0};
    std::size_t max{0};
  };
  const coverage_partial cov = pool.reduce<coverage_partial>(
      g.num_nodes(), {},
      [&](std::size_t lo, std::size_t hi) {
        coverage_partial part;
        disk_scratch scratch;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto uid = static_cast<node_id>(u);
          for (const node_id v : g.neighbors(uid)) {
            if (v < uid) continue;  // visited from v
            const std::size_t c = disk_union_count(positions, grid, uid, v, scratch);
            part.sum += c;
            part.max = std::max(part.max, c);
          }
        }
        return part;
      },
      [](coverage_partial& total, const coverage_partial& p) {
        total.sum += p.sum;
        total.max = std::max(total.max, p.max);
      });
  // Integer counts: the mean is exactly the serial per-edge double sum.
  stats.mean = static_cast<double>(cov.sum) / static_cast<double>(stats.edges);
  stats.max = cov.max;
  return stats;
}

}  // namespace cbtc::graph
