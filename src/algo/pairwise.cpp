#include "algo/pairwise.h"

#include <algorithm>
#include <vector>

#include "geom/angle.h"
#include "util/parallel.h"

namespace cbtc::algo {

edge_id edge_id::of(graph::node_id u, graph::node_id v, std::span<const geom::vec2> positions) {
  return {geom::distance(positions[u], positions[v]), std::max(u, v), std::min(u, v)};
}

namespace {

/// True if some neighbor w of `apex` witnesses the redundancy of the
/// edge (apex, other): angle(other, apex, w) < pi/3 and smaller eid.
/// `eid_uv` is the edge's id, precomputed by the caller (it is the
/// same from either apex: the distance is symmetric bit for bit and
/// hi/lo are order-normalized).
bool has_witness(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                 graph::node_id apex, graph::node_id other, const edge_id& eid_uv) {
  if (eid_uv.length == 0.0) return false;  // zero-length edges are never redundant
  const double dir_other = (positions[other] - positions[apex]).bearing();
  for (graph::node_id w : g.neighbors(apex)) {
    if (w == other) continue;
    // A coincident witness has no meaningful bearing and violates the
    // strict-triangle argument of Theorem 3.6 (d(w,v) would equal
    // d(u,v), not undercut it); skip it.
    if (positions[w] == positions[apex]) continue;
    const double dir_w = (positions[w] - positions[apex]).bearing();
    // Strictly less than pi/3 (Definition 3.5), with last-ulp guard.
    if (geom::angle_dist(dir_other, dir_w) >= geom::pi / 3.0 - 1e-12) continue;
    if (edge_id::of(apex, w, positions) < eid_uv) return true;
  }
  return false;
}

}  // namespace

bool is_redundant_edge(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                       graph::node_id u, graph::node_id v) {
  const edge_id eid = edge_id::of(u, v, positions);
  return has_witness(g, positions, u, v, eid) || has_witness(g, positions, v, u, eid);
}

pairwise_result apply_pairwise_removal(const graph::undirected_graph& g,
                                       std::span<const geom::vec2> positions,
                                       const pairwise_options& opts, util::thread_pool& pool) {
  pairwise_result res;
  const std::size_t n = g.num_nodes();

  // Lex-sorted edge table with per-node offsets: node u's up-edges
  // {u, v > u} occupy indices [eoff[u], eoff[u + 1]), so the index of
  // any incident edge is computable locally — the per-node passes
  // below never need a serial scatter.
  std::vector<std::size_t> eoff(n + 1, 0);
  {
    std::vector<std::size_t> updeg(n);
    pool.parallel_for(n, [&](std::size_t u) {
      const std::span<const graph::node_id> nb = g.neighbors(static_cast<graph::node_id>(u));
      updeg[u] = static_cast<std::size_t>(
          nb.end() - std::upper_bound(nb.begin(), nb.end(), static_cast<graph::node_id>(u)));
    });
    for (std::size_t u = 0; u < n; ++u) eoff[u + 1] = eoff[u] + updeg[u];
  }
  const std::size_t m = eoff[n];
  std::vector<graph::edge> edges(m);
  pool.parallel_for(n, [&](std::size_t u) {
    const auto uid = static_cast<graph::node_id>(u);
    const std::span<const graph::node_id> nb = g.neighbors(uid);
    std::size_t w = eoff[u];
    for (auto it = std::upper_bound(nb.begin(), nb.end(), uid); it != nb.end(); ++it) {
      edges[w++] = {uid, *it};
    }
  });
  /// Index of edge {a, b} (a < b) in the table.
  const auto edge_index = [&](graph::node_id a, graph::node_id b) {
    const std::span<const graph::node_id> nb = g.neighbors(a);
    const auto first = std::upper_bound(nb.begin(), nb.end(), a);
    return eoff[a] + static_cast<std::size_t>(std::lower_bound(first, nb.end(), b) - first);
  };

  // Per-edge classification: each slot written exactly once (chars,
  // not vector<bool> — concurrent bit writes would race), the count
  // reduced in fixed block order. The edge length is the first field
  // of its id; carrying it into the fold/drop passes below saves a
  // distance recomputation per pass.
  std::vector<unsigned char> redundant(m, 0);
  std::vector<double> lengths(m);
  res.redundant_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [u, v] = edges[i];
          const edge_id eid = edge_id::of(u, v, positions);
          lengths[i] = eid.length;
          redundant[i] = has_witness(g, positions, u, v, eid) || has_witness(g, positions, v, u, eid)
                             ? 1
                             : 0;
          count += redundant[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  // Longest non-redundant edge incident to each node: removing only
  // redundant edges longer than this cannot increase any node's radius
  // and brings every node's radius down to exactly this length. One
  // slot per node, each written by exactly one task; max over a fixed
  // set of doubles is exact, so the result is width-independent.
  std::vector<double> longest_needed(n, 0.0);
  if (!opts.remove_all) {
    pool.parallel_for(n, [&](std::size_t u) {
      const auto uid = static_cast<graph::node_id>(u);
      double best = 0.0;
      std::size_t up = eoff[u];
      for (const graph::node_id v : g.neighbors(uid)) {
        const std::size_t i = v > uid ? up++ : edge_index(v, uid);
        if (!redundant[i]) best = std::max(best, lengths[i]);
      }
      longest_needed[u] = best;
    });
  }

  // Drop verdicts per edge slot; the removal count folds in fixed
  // block order.
  std::vector<unsigned char> drop(m, 0);
  res.removed_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          bool d = redundant[i] != 0;
          if (d && !opts.remove_all) {
            const auto [u, v] = edges[i];
            const double len = lengths[i];
            d = opts.gate == pairwise_gate::either_endpoint
                    ? (len > longest_needed[u] || len > longest_needed[v])
                    : (len > longest_needed[u] && len > longest_needed[v]);
          }
          drop[i] = d ? 1 : 0;
          count += drop[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  // Surviving topology assembled as flat CSR: per-node kept-degree
  // count, exclusive prefix sum, parallel fill.
  std::vector<std::size_t> koff(n + 1, 0);
  {
    std::vector<std::size_t> kdeg(n);
    pool.parallel_for(n, [&](std::size_t u) {
      const auto uid = static_cast<graph::node_id>(u);
      std::size_t up = eoff[u];
      std::size_t count = 0;
      for (const graph::node_id v : g.neighbors(uid)) {
        const std::size_t i = v > uid ? up++ : edge_index(v, uid);
        if (!drop[i]) ++count;
      }
      kdeg[u] = count;
    });
    for (std::size_t u = 0; u < n; ++u) koff[u + 1] = koff[u] + kdeg[u];
  }
  std::vector<graph::node_id> kflat(koff[n]);
  pool.parallel_for(n, [&](std::size_t u) {
    const auto uid = static_cast<graph::node_id>(u);
    std::size_t up = eoff[u];
    std::size_t w = koff[u];
    for (const graph::node_id v : g.neighbors(uid)) {
      const std::size_t i = v > uid ? up++ : edge_index(v, uid);
      if (!drop[i]) kflat[w++] = v;
    }
  });
  res.topology = graph::undirected_graph::from_csr(std::move(koff), std::move(kflat));
  return res;
}

}  // namespace cbtc::algo
