#include "algo/stc.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "algo/gain_removal.h"
#include "graph/euclidean.h"

namespace cbtc::algo {

stc_result build_stc_topology(std::span<const geom::vec2> positions,
                              const radio::link_model& link, util::thread_pool& pool) {
  return build_stc_topology(graph::build_priced_max_power_graph(positions, link, pool), pool);
}

stc_result build_stc_topology(const graph::priced_graph& candidates, util::thread_pool& pool) {
  stc_result res;
  const std::size_t n = candidates.graph.num_nodes();

  // Per-node keep decisions: each slot written by exactly one task, so
  // the outcome is width-independent by construction. The scan runs in
  // ascending gain_edge_id order; every link's price comes from the
  // candidates' column.
  std::vector<std::vector<graph::node_id>> kept(n);
  res.kept_links = pool.reduce<std::size_t>(
      n, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        std::vector<std::pair<gain_edge_id, graph::node_id>> order;
        std::vector<graph::node_id> mine;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto uid = static_cast<graph::node_id>(u);
          order.clear();
          candidates.any_link(uid, [&](graph::node_id v, double power) {
            order.emplace_back(gain_edge_id::make(power, uid, v), v);
            return false;
          });
          // gain_edge_id is a strict total order (power, then ids), so
          // the sort has no equal keys and the scan order is unique.
          std::sort(order.begin(), order.end());
          mine.clear();
          for (const auto& [eid_uv, v] : order) {
            bool covered = false;
            for (const graph::node_id k : mine) {
              const std::optional<double> p = candidates.find_power(k, v);
              if (p && gain_edge_id::make(*p, k, v) < eid_uv) {
                covered = true;
                break;
              }
            }
            if (!covered) mine.push_back(v);
          }
          count += mine.size();
          kept[u] = mine;
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });
  res.pruned_links = candidates.graph.num_edges() * 2 - res.kept_links;

  // Symmetrize: edge {u, v} survives iff either endpoint kept it.
  std::vector<graph::edge> links;
  links.reserve(res.kept_links);
  for (std::size_t u = 0; u < n; ++u) {
    for (const graph::node_id v : kept[u]) links.push_back({static_cast<graph::node_id>(u), v});
  }
  res.topology = graph::undirected_graph::from_edges(n, links);
  return res;
}

}  // namespace cbtc::algo
