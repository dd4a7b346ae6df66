#include "algo/analysis.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "graph/metrics.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace cbtc::algo {

invariant_report check_invariants(const graph::undirected_graph& topology,
                                  std::span<const geom::vec2> positions,
                                  const radio::link_model& link,
                                  const graph::undirected_graph& max_power_graph,
                                  util::thread_pool& pool) {
  return check_invariants(topology, topology, {}, positions, link, max_power_graph, pool);
}

invariant_report check_invariants(const graph::undirected_graph& topology,
                                  const graph::undirected_graph& relabeled_topology,
                                  std::span<const std::uint32_t> label_of,
                                  std::span<const geom::vec2> positions,
                                  const radio::link_model& link,
                                  const graph::undirected_graph& max_power_graph,
                                  util::thread_pool& pool) {
  invariant_report rep;
  const auto label = [&](graph::node_id u) { return label_of.empty() ? u : label_of[u]; };

  // The first two desiderata — subgraph of G_R and partition equality
  // — are identical under every radio model. The subgraph test merges
  // each (sorted) topology row into the G_R row of the same label, in
  // G_R's label space; only a failure walks the topology again in
  // original ids, to name the offending edges.
  rep.subgraph_of_max_power = pool.reduce<bool>(
      relabeled_topology.num_nodes(), true,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
          const auto uid = static_cast<graph::node_id>(u);
          const std::span<const graph::node_id> row = relabeled_topology.neighbors(uid);
          const std::span<const graph::node_id> gr_row =
              u < max_power_graph.num_nodes() ? max_power_graph.neighbors(uid)
                                              : std::span<const graph::node_id>();
          if (!std::includes(gr_row.begin(), gr_row.end(), row.begin(), row.end())) return false;
        }
        return true;
      },
      [](bool& total, const bool& part) { total = total && part; });
  if (!rep.subgraph_of_max_power) {
    for (const graph::edge& e : topology.edges()) {
      if (!max_power_graph.has_edge(label(e.u), label(e.v))) {
        rep.violations.push_back("edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
                                 ") not in G_R");
      }
    }
  }
  graph::connectivity_scratch scratch;
  rep.connectivity_preserved =
      graph::same_connectivity(relabeled_topology, max_power_graph, pool, scratch);
  if (!rep.connectivity_preserved) {
    rep.violations.push_back("component partition differs: topology has " +
                             std::to_string(graph::connected_components(relabeled_topology).count) +
                             " components, G_R has " +
                             std::to_string(graph::connected_components(max_power_graph).count));
  }

  // Per-node reach scan, reduced in fixed block order so the report
  // (flag and violation order) is identical for any thread count.
  // Isotropic links keep the paper's geometric radius test; per-link
  // gains price every node's worst incident link against P.
  constexpr double tol = 1e-9;
  const bool isotropic = link.is_isotropic();
  const double max_range = link.max_range();
  const double max_power = link.max_power();
  struct reach_partial {
    bool ok{true};
    std::vector<std::string> violations;
  };
  const reach_partial reach = pool.reduce<reach_partial>(
      topology.num_nodes(), {},
      [&](std::size_t lo, std::size_t hi) {
        reach_partial part;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto uid = static_cast<graph::node_id>(u);
          if (isotropic) {
            const double r = graph::node_radius(topology, positions, uid, 0.0);
            if (r > max_range * (1.0 + tol)) {
              part.ok = false;
              part.violations.push_back("node " + std::to_string(u) + " needs radius " +
                                        std::to_string(r) + " > R = " + std::to_string(max_range));
            }
            continue;
          }
          double need = 0.0;
          for (const graph::node_id v : topology.neighbors(uid)) {
            need = std::max(need, link.required_power(uid, v, positions[u], positions[v]));
          }
          if (need > max_power * (1.0 + tol)) {
            part.ok = false;
            part.violations.push_back("node " + std::to_string(u) + " needs power " +
                                      std::to_string(need) + " > P = " + std::to_string(max_power));
          }
        }
        return part;
      },
      [](reach_partial& total, const reach_partial& p) {
        total.ok = total.ok && p.ok;
        total.violations.insert(total.violations.end(), p.violations.begin(),
                                p.violations.end());
      });
  rep.radii_within_max_range = reach.ok;
  rep.violations.insert(rep.violations.end(), reach.violations.begin(), reach.violations.end());
  return rep;
}

}  // namespace cbtc::algo
