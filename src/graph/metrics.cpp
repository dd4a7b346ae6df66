#include "graph/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/shortest_path.h"

namespace cbtc::graph {

double average_degree(const undirected_graph& g) {
  if (g.num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes());
}

double node_radius(const undirected_graph& g, std::span<const geom::vec2> positions, node_id u,
                   double isolated_radius) {
  double r = 0.0;
  bool any = false;
  for (node_id v : g.neighbors(u)) {
    r = std::max(r, geom::distance(positions[u], positions[v]));
    any = true;
  }
  return any ? r : isolated_radius;
}

double average_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                      double isolated_radius) {
  if (g.num_nodes() == 0) return 0.0;
  double total = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    total += node_radius(g, positions, u, isolated_radius);
  }
  return total / static_cast<double>(g.num_nodes());
}

double max_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                  double isolated_radius) {
  double r = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    r = std::max(r, node_radius(g, positions, u, isolated_radius));
  }
  return r;
}

std::vector<std::size_t> degree_histogram(const undirected_graph& g) {
  std::size_t max_deg = 0;
  for (node_id u = 0; u < g.num_nodes(); ++u) max_deg = std::max(max_deg, g.degree(u));
  std::vector<std::size_t> hist(max_deg + 1, 0);
  for (node_id u = 0; u < g.num_nodes(); ++u) ++hist[g.degree(u)];
  return hist;
}

double average_power(const undirected_graph& g, std::span<const geom::vec2> positions,
                     double exponent, double isolated_radius) {
  if (g.num_nodes() == 0) return 0.0;
  double total = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    total += std::pow(node_radius(g, positions, u, isolated_radius), exponent);
  }
  return total / static_cast<double>(g.num_nodes());
}

namespace {

/// One single-source job's reusable memory: the distance row it fills
/// plus the Dijkstra heap or BFS queue that drives it. A stretch pass
/// owns two per source of a wave and recycles them across waves.
struct sssp_slot {
  std::vector<double> dist;
  dijkstra_heap heap;
  std::vector<node_id> queue;
};

/// Common core of the stretch metrics. `solve(g, s, slot)` fills
/// slot.dist with the distances from s in g (+infinity if unreachable).
/// Sources run in waves of at most pool.size(): every (source, graph)
/// job of a wave fans across the pool into its own slot, then the
/// wave's ratios fold serially in (source, target) ascending order —
/// the exact floating-point sequence of a one-source-at-a-time loop.
/// With `label_of`, sources and targets are original ids and the rows
/// are indexed by label: source s runs from label_of[s] and target t
/// reads row entry label_of[t], so the fold's sequence is unchanged.
template <class Solve>
stretch_stats sampled_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                              std::size_t sample_sources, util::thread_pool& pool,
                              std::span<const std::uint32_t> label_of, const Solve& solve) {
  stretch_stats stats;
  const std::size_t n = dense.num_nodes();
  if (n == 0 || sample_sources == 0) return stats;
  // Deterministic sampling: evenly spaced source ids.
  const std::size_t step = std::max<std::size_t>(1, n / std::min(sample_sources, n));
  std::vector<node_id> sources;
  for (std::size_t s = 0; s < n; s += step) sources.push_back(static_cast<node_id>(s));
  const bool relabeled = !label_of.empty();
  const auto label = [&](node_id u) { return relabeled ? label_of[u] : u; };

  // As few waves as the width allows, evened out (9 sources at width 4
  // run as 3 x 3, not 4 + 4 + 1: same rounds, fewer rows held).
  // slots[k] holds the dense row and slots[wave + k] the sparse row of
  // the wave's k-th source. Dense jobs come first so the cheap sparse
  // ones fill in behind them.
  const std::size_t rounds = (sources.size() + pool.size() - 1) / pool.size();
  const std::size_t wave = (sources.size() + rounds - 1) / rounds;
  std::vector<sssp_slot> slots(2 * wave);

  double total = 0.0;
  double worst = 1.0;
  std::size_t pairs = 0;
  for (std::size_t first = 0; first < sources.size(); first += wave) {
    const std::size_t m = std::min(wave, sources.size() - first);
    pool.parallel_for_chunks(2 * m, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        const bool is_dense = j < m;
        const std::size_t k = is_dense ? j : j - m;
        solve(is_dense ? dense : sparse, label(sources[first + k]), slots[is_dense ? k : wave + k]);
      }
    });
    for (std::size_t k = 0; k < m; ++k) {
      const node_id s = sources[first + k];
      const std::vector<double>& dd = slots[k].dist;
      const std::vector<double>& ds = slots[wave + k].dist;
      for (node_id t = 0; t < n; ++t) {
        if (t == s) continue;
        const node_id lt = label(t);
        if (!std::isfinite(dd[lt]) || dd[lt] <= 0.0) continue;  // unreachable in dense graph
        if (!std::isfinite(ds[lt])) continue;                   // connectivity violation; skip here
        const double ratio = ds[lt] / dd[lt];
        total += ratio;
        worst = std::max(worst, ratio);
        ++pairs;
      }
    }
  }
  if (pairs > 0) {
    stats.mean = total / static_cast<double>(pairs);
    stats.max = worst;
    stats.pairs = pairs;
  }
  return stats;
}

}  // namespace

stretch_stats power_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                            const std::vector<geom::vec2>& positions, double exponent,
                            std::size_t sample_sources, util::thread_pool& pool,
                            std::span<const std::uint32_t> label_of) {
  // A hop costs pow(hypot(dx, dy), n). Under the paper's n = 2 that is
  // within a few ulps of dx^2 + dy^2, so the squared distance shrunk by
  // 1e-12 bounds it from below: a few multiplies, where the cost takes
  // hypot and pow, let Dijkstra skip most non-improving relaxations
  // without changing a bit. Other exponents get no bound.
  const double bound_scale = exponent == 2.0 ? 1.0 - 1e-12 : 0.0;
  return sampled_stretch(sparse, dense, sample_sources, pool, label_of,
                         [&](const undirected_graph& g, node_id s, sssp_slot& slot) {
                           const auto cost = [&](node_id u, node_id v) {
                             return std::pow(geom::distance(positions[u], positions[v]), exponent);
                           };
                           const auto bound = [&](node_id u, node_id v) {
                             return bound_scale * geom::distance_sq(positions[u], positions[v]);
                           };
                           dijkstra_into(g, s, cost, slot.dist, slot.heap, [](node_id, node_id) {},
                                         bound);
                         });
}

stretch_stats hop_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                          std::size_t sample_sources, util::thread_pool& pool,
                          std::span<const std::uint32_t> label_of) {
  return sampled_stretch(sparse, dense, sample_sources, pool, label_of,
                         [](const undirected_graph& g, node_id s, sssp_slot& slot) {
                           // BFS with hop counts kept as doubles: exact integers, and
                           // +infinity marks unreachable nodes as in the power rows.
                           constexpr double inf = std::numeric_limits<double>::infinity();
                           slot.dist.assign(g.num_nodes(), inf);
                           slot.queue.clear();
                           slot.dist[s] = 0.0;
                           slot.queue.push_back(s);
                           for (std::size_t head = 0; head < slot.queue.size(); ++head) {
                             const node_id u = slot.queue[head];
                             for (const node_id v : g.neighbors(u)) {
                               if (slot.dist[v] == inf) {
                                 slot.dist[v] = slot.dist[u] + 1.0;
                                 slot.queue.push_back(v);
                               }
                             }
                           }
                         });
}

}  // namespace cbtc::graph
