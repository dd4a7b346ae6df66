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
  if (n == 0 || reach <= 0.0) return undirected_graph::from_edges(n, {});
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

/// Up-offsets of a CSR graph: node u's up-neighbours (v > u) get
/// column slots [up[u], up[u + 1]).
std::vector<std::size_t> up_offsets_of(const undirected_graph& g, util::thread_pool& pool) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> updeg(n);
  pool.parallel_for(n, [&](std::size_t u) {
    const std::span<const node_id> row = g.neighbors(static_cast<node_id>(u));
    updeg[u] = static_cast<std::size_t>(
        row.end() - std::upper_bound(row.begin(), row.end(), static_cast<node_id>(u)));
  });
  std::vector<std::size_t> up(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) up[u + 1] = up[u] + updeg[u];
  return up;
}

/// G_R for an expensive membership test (per-link gain evaluation):
/// each unordered pair is priced exactly once, from its lower endpoint,
/// and kept with its price when it closes at maximum power. Pass 1
/// stores the accepted up-neighbors (v > u, ascending) and their prices
/// per node and counts the transpose with relaxed atomics; pass 2
/// scatters each up-edge into its upper endpoint's down-segment via
/// atomic cursors; pass 3 sorts each down-segment, appends the
/// up-neighbors and moves their prices into the column. Scatter order
/// is schedule-dependent but the per-segment sort restores the unique
/// sorted order, and down-neighbors (< u) precede up-neighbors (> u),
/// so the result is identical for any pool width — and edge-identical
/// to build_max_power_graph_brute.
priced_graph build_csr_max_power_once(std::span<const geom::vec2> positions,
                                      const radio::link_model& link, util::thread_pool& pool) {
  const std::size_t n = positions.size();
  const double reach = link.max_candidate_range();
  priced_graph out;
  if (n == 0 || reach <= 0.0) {
    out.graph = undirected_graph::from_edges(n, {});
    out.up_offsets.assign(n + 1, 0);
    return out;
  }
  const double cap = link.max_power() * (1.0 + 1e-12);  // link_model::reaches' tolerance
  const geom::spatial_grid grid(positions, reach);
  std::vector<std::vector<node_id>> up(n);
  std::vector<std::vector<double>> up_price(n);
  std::vector<std::atomic<std::uint32_t>> down(n);  // in-degree, then fill cursor
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    std::vector<geom::point_index> hits;
    std::vector<node_id> ids;
    std::vector<double> prices;
    for (std::size_t u = lo; u < hi; ++u) {
      hits.clear();
      grid.query_radius_into(positions[u], reach, static_cast<geom::point_index>(u), hits);
      hits.erase(std::remove_if(hits.begin(), hits.end(),
                                [u](geom::point_index v) { return v <= u; }),
                 hits.end());
      std::sort(hits.begin(), hits.end());
      ids.clear();
      prices.clear();
      const auto uid = static_cast<node_id>(u);
      for (const geom::point_index hit : hits) {
        const auto v = static_cast<node_id>(hit);
        const double p = link.required_power(uid, v, positions[u], positions[v]);
        if (p <= cap) {
          ids.push_back(v);
          prices.push_back(p);
        }
      }
      up[u].assign(ids.begin(), ids.end());
      up_price[u].assign(prices.begin(), prices.end());
      for (const node_id v : ids) down[v].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::size_t> off(n + 1, 0);
  out.up_offsets.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    off[u + 1] = off[u] + down[u].load(std::memory_order_relaxed) + up[u].size();
    out.up_offsets[u + 1] = out.up_offsets[u] + up[u].size();
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
  out.up_power.resize(out.up_offsets[n]);
  pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      const std::size_t down_len = (off[u + 1] - off[u]) - up[u].size();
      const auto begin = flat.begin() + static_cast<std::ptrdiff_t>(off[u]);
      std::sort(begin, begin + static_cast<std::ptrdiff_t>(down_len));
      std::copy(up[u].begin(), up[u].end(), begin + static_cast<std::ptrdiff_t>(down_len));
      std::copy(up_price[u].begin(), up_price[u].end(),
                out.up_power.begin() + static_cast<std::ptrdiff_t>(out.up_offsets[u]));
      up[u] = {};
      up_price[u] = {};
    }
  });
  out.graph = undirected_graph::from_csr(std::move(off), std::move(flat));
  return out;
}

}  // namespace

std::optional<double> priced_graph::find_power(node_id u, node_id v) const {
  if (!has_prices()) return std::nullopt;
  const node_id lo = std::min(u, v);
  const node_id hi = std::max(u, v);
  const std::span<const node_id> ups = up_neighbors(lo);
  const auto it = std::lower_bound(ups.begin(), ups.end(), hi);
  if (it == ups.end() || *it != hi) return std::nullopt;
  return up_power[up_offsets[lo] + static_cast<std::size_t>(it - ups.begin())];
}

undirected_graph build_max_power_graph(std::span<const geom::vec2> positions,
                                       const radio::link_model& link, util::thread_pool& pool) {
  // Each CSR builder wins on its side: the distance test is cheap
  // enough to run from both endpoints, a per-link gain is not.
  if (link.is_isotropic()) return build_csr_max_power(positions, link.max_range(), pool);
  return build_csr_max_power_once(positions, link, pool).graph;
}

priced_graph build_priced_max_power_graph(std::span<const geom::vec2> positions,
                                          const radio::link_model& link,
                                          util::thread_pool& pool) {
  if (link.is_isotropic()) {
    return price_links(build_csr_max_power(positions, link.max_range(), pool), positions, link,
                       pool);
  }
  return build_csr_max_power_once(positions, link, pool);
}

priced_graph price_links(undirected_graph g, std::span<const geom::vec2> positions,
                         const radio::link_model& link, util::thread_pool& pool) {
  priced_graph out;
  out.up_offsets = up_offsets_of(g, pool);
  out.up_power.resize(out.up_offsets.back());
  out.graph = std::move(g);
  pool.parallel_for(out.graph.num_nodes(), [&](std::size_t u) {
    const auto uid = static_cast<node_id>(u);
    std::size_t slot = out.up_offsets[u];
    for (const node_id v : out.up_neighbors(uid)) {
      out.up_power[slot++] = link.required_power(uid, v, positions[u], positions[v]);
    }
  });
  return out;
}

undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                             double max_range) {
  std::vector<edge> edges;
  const double r_sq = max_range * max_range;
  for (node_id u = 0; u < positions.size(); ++u) {
    for (node_id v = u + 1; v < positions.size(); ++v) {
      if (geom::distance_sq(positions[u], positions[v]) <= r_sq) edges.push_back({u, v});
    }
  }
  return undirected_graph::from_edges(positions.size(), edges);
}

undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                             const radio::link_model& link) {
  if (link.is_isotropic()) return build_max_power_graph_brute(positions, link.max_range());
  std::vector<edge> edges;
  const double max_power = link.max_power();
  for (node_id u = 0; u < positions.size(); ++u) {
    for (node_id v = u + 1; v < positions.size(); ++v) {
      if (link.reaches(max_power, u, v, positions[u], positions[v])) edges.push_back({u, v});
    }
  }
  return undirected_graph::from_edges(positions.size(), edges);
}

double edge_length(std::span<const geom::vec2> positions, node_id u, node_id v) {
  return geom::distance(positions[u], positions[v]);
}

}  // namespace cbtc::graph
