#include "graph/euclidean.h"

#include <algorithm>
#include <atomic>

#include "util/parallel.h"

namespace cbtc::graph {

namespace {

/// Isotropic G_R (membership by distance alone): per-node candidate
/// count via the grid, exclusive prefix sum, per-node fill + sort into
/// one flat CSR array.
undirected_graph build_csr_max_power(std::span<const geom::vec2> positions, double reach,
                                     util::thread_pool& pool) {
  const std::size_t n = positions.size();
  if (n == 0 || reach <= 0.0) return undirected_graph(n);
  const geom::spatial_grid grid(positions, reach);
  std::vector<std::size_t> deg(n);
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    std::vector<geom::point_index> hits;
    for (std::size_t u = lo; u < hi; ++u) {
      hits.clear();
      grid.query_radius_into(positions[u], reach, static_cast<geom::point_index>(u), hits);
      deg[u] = hits.size();
    }
  });
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) off[u + 1] = off[u] + deg[u];
  std::vector<node_id> flat(off[n]);
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    std::vector<geom::point_index> hits;
    for (std::size_t u = lo; u < hi; ++u) {
      hits.clear();
      grid.query_radius_into(positions[u], reach, static_cast<geom::point_index>(u), hits);
      std::copy(hits.begin(), hits.end(), flat.begin() + static_cast<std::ptrdiff_t>(off[u]));
      std::sort(flat.begin() + static_cast<std::ptrdiff_t>(off[u]),
                flat.begin() + static_cast<std::ptrdiff_t>(off[u + 1]));
    }
  });
  return undirected_graph::from_csr(std::move(off), std::move(flat));
}

/// Variant for expensive membership tests (per-link gain evaluation):
/// each unordered pair is tested exactly once, from its lower
/// endpoint. Pass 1 stores the accepted up-neighbors (v > u) per node
/// and counts the transpose with relaxed atomics; pass 2 scatters each
/// up-edge into its upper endpoint's down-segment via atomic cursors.
/// Scatter order is schedule-dependent but the per-segment sort
/// restores the unique sorted order, and down-neighbors (< u) precede
/// up-neighbors (> u), so the result is identical for any pool width
/// — and edge-identical to build_max_power_graph_brute.
template <class Accept>
undirected_graph build_csr_max_power_once(std::span<const geom::vec2> positions, double reach,
                                          util::thread_pool& pool, const Accept& accept) {
  const std::size_t n = positions.size();
  if (n == 0 || reach <= 0.0) return undirected_graph(n);
  const geom::spatial_grid grid(positions, reach);
  std::vector<std::vector<node_id>> up(n);
  std::vector<std::atomic<std::uint32_t>> down(n);  // in-degree, then fill cursor
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    std::vector<geom::point_index> hits;
    for (std::size_t u = lo; u < hi; ++u) {
      hits.clear();
      grid.query_radius_into(positions[u], reach, static_cast<geom::point_index>(u), hits);
      std::vector<node_id>& list = up[u];
      for (const geom::point_index v : hits) {
        if (v > u && accept(static_cast<node_id>(u), static_cast<node_id>(v))) {
          list.push_back(static_cast<node_id>(v));
        }
      }
      std::sort(list.begin(), list.end());
      for (const node_id v : list) down[v].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    off[u + 1] = off[u] + down[u].load(std::memory_order_relaxed) + up[u].size();
    down[u].store(0, std::memory_order_relaxed);
  }
  std::vector<node_id> flat(off[n]);
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      for (const node_id v : up[u]) {
        const std::size_t slot = off[v] + down[v].fetch_add(1, std::memory_order_relaxed);
        flat[slot] = static_cast<node_id>(u);
      }
    }
  });
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      const std::size_t down_len = (off[u + 1] - off[u]) - up[u].size();
      const auto begin = flat.begin() + static_cast<std::ptrdiff_t>(off[u]);
      std::sort(begin, begin + static_cast<std::ptrdiff_t>(down_len));
      std::copy(up[u].begin(), up[u].end(), begin + static_cast<std::ptrdiff_t>(down_len));
    }
  });
  return undirected_graph::from_csr(std::move(off), std::move(flat));
}

}  // namespace

undirected_graph build_max_power_graph(std::span<const geom::vec2> positions,
                                       const radio::link_model& link, util::thread_pool& pool) {
  // Each CSR builder wins on its side: the distance test is cheap
  // enough to run from both endpoints, a per-link gain is not.
  if (link.is_isotropic()) return build_csr_max_power(positions, link.max_range(), pool);
  const double max_power = link.max_power();
  return build_csr_max_power_once(positions, link.max_candidate_range(), pool,
                                  [&](node_id u, node_id v) {
                                    return link.reaches(max_power, u, v, positions[u],
                                                        positions[v]);
                                  });
}

undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                             double max_range) {
  undirected_graph g(positions.size());
  const double r_sq = max_range * max_range;
  for (node_id u = 0; u < positions.size(); ++u) {
    for (node_id v = u + 1; v < positions.size(); ++v) {
      if (geom::distance_sq(positions[u], positions[v]) <= r_sq) g.add_edge(u, v);
    }
  }
  return g;
}

undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                             const radio::link_model& link) {
  if (link.is_isotropic()) return build_max_power_graph_brute(positions, link.max_range());
  undirected_graph g(positions.size());
  const double max_power = link.max_power();
  for (node_id u = 0; u < positions.size(); ++u) {
    for (node_id v = u + 1; v < positions.size(); ++v) {
      if (link.reaches(max_power, u, v, positions[u], positions[v])) g.add_edge(u, v);
    }
  }
  return g;
}

double edge_length(std::span<const geom::vec2> positions, node_id u, node_id v) {
  return geom::distance(positions[u], positions[v]);
}

}  // namespace cbtc::graph
