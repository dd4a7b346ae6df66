#include "algo/gain_removal.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "graph/euclidean.h"
#include "graph/union_find.h"

namespace cbtc::algo {

gain_edge_id gain_edge_id::of(graph::node_id u, graph::node_id v,
                              std::span<const geom::vec2> positions,
                              const radio::link_model& link) {
  return make(link.required_power(u, v, positions[u], positions[v]), u, v);
}

namespace {

/// Two-hop witness: a common candidate neighbor w of u and v with both
/// hop ids strictly below eid_uv. The scan runs from the endpoint with
/// the smaller candidate degree and checks the first hop's price before
/// the (binary-search) membership probe for the second.
bool two_hop_witness(const graph::priced_graph& c, graph::node_id u, graph::node_id v,
                     const gain_edge_id& eid_uv) {
  const graph::node_id apex = c.graph.degree(u) <= c.graph.degree(v) ? u : v;
  const graph::node_id other = apex == u ? v : u;
  return c.any_link(apex, [&](graph::node_id w, double p) {
    if (w == other || !(gain_edge_id::make(p, apex, w) < eid_uv)) return false;
    const std::optional<double> second = c.find_power(w, other);
    return second && gain_edge_id::make(*second, w, other) < eid_uv;
  });
}

/// Depth-limited breadth-first reachability u -> v over the candidate
/// subgraph of edges with id strictly below eid_uv. Earliest-depth
/// marking is exact for "exists a path of <= max_hops hops". The
/// scratch is per OS thread and epoch-stamped, so the classification
/// reduce reuses it across edges without clearing O(n) state per query.
struct bfs_scratch {
  std::vector<std::uint32_t> mark;
  std::vector<graph::node_id> cur, nxt;
  std::uint32_t epoch{0};
};

bool bfs_witness(const graph::priced_graph& c, graph::node_id u, graph::node_id v,
                 const gain_edge_id& eid_uv, std::size_t max_hops) {
  thread_local bfs_scratch s;
  const std::size_t n = c.graph.num_nodes();
  if (s.mark.size() < n) {
    s.mark.assign(n, 0);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  s.cur.clear();
  s.cur.push_back(u);
  s.mark[u] = s.epoch;
  for (std::size_t depth = 1; depth <= max_hops && !s.cur.empty(); ++depth) {
    s.nxt.clear();
    for (const graph::node_id a : s.cur) {
      const bool reached = c.any_link(a, [&](graph::node_id w, double p) {
        if (s.mark[w] == s.epoch || !(gain_edge_id::make(p, a, w) < eid_uv)) return false;
        if (w == v) return true;
        s.mark[w] = s.epoch;
        s.nxt.push_back(w);
        return false;
      });
      if (reached) return true;
    }
    std::swap(s.cur, s.nxt);
  }
  return false;
}

bool has_power_witness(const graph::priced_graph& c, graph::node_id u, graph::node_id v,
                       const gain_edge_id& eid_uv, std::size_t max_hops) {
  // A zero-power edge joins coincident nodes; a "cheaper" path exists
  // only by id tie-break, which proves nothing physical. Mirror the
  // pairwise pass: never redundant.
  if (eid_uv.power == 0.0) return false;
  if (max_hops < 2) return false;
  if (two_hop_witness(c, u, v, eid_uv)) return true;
  if (max_hops == 2) return false;
  return bfs_witness(c, u, v, eid_uv, max_hops);
}

}  // namespace

gain_removal_result apply_gain_aware_removal(const graph::undirected_graph& g,
                                             std::span<const geom::vec2> positions,
                                             const radio::link_model& link,
                                             const gain_removal_options& opts,
                                             util::thread_pool& pool) {
  const graph::priced_graph candidates =
      graph::build_priced_max_power_graph(positions, link, pool);
  return apply_gain_aware_removal(g, candidates, positions, link, opts, pool);
}

gain_removal_result apply_gain_aware_removal(const graph::undirected_graph& g,
                                             const graph::priced_graph& candidates,
                                             std::span<const geom::vec2> positions,
                                             const radio::link_model& link,
                                             const gain_removal_options& opts,
                                             util::thread_pool& pool) {
  if (!candidates.has_prices()) {
    throw std::invalid_argument("apply_gain_aware_removal: candidate graph has no price column");
  }
  gain_removal_result res;
  const std::size_t n = g.num_nodes();

  // Lex-sorted edge table with per-node offsets, exactly as in
  // apply_pairwise_removal: node u's up-edges {u, v > u} occupy
  // [eoff[u], eoff[u + 1]), so every per-node pass below locates any
  // incident edge's slot locally.
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

  // Per-edge classification against the candidate graph. Slot writes
  // plus block-ordered count; the required power doubles as the gate
  // metric below, so it is looked up once and carried. Every edge of a
  // CBTC topology is a G_R edge and reads the column; an input edge
  // outside G_R is priced on the spot.
  std::vector<unsigned char> redundant(m, 0);
  std::vector<double> powers(m);
  res.redundant_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [u, v] = edges[i];
          const std::optional<double> priced = candidates.find_power(u, v);
          const gain_edge_id eid =
              priced ? gain_edge_id::make(*priced, u, v) : gain_edge_id::of(u, v, positions, link);
          powers[i] = eid.power;
          redundant[i] = has_power_witness(candidates, u, v, eid, opts.max_witness_hops) ? 1 : 0;
          count += redundant[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  // Costliest non-redundant link per node: removing only redundant
  // edges above this power cannot raise any node's transmit power and
  // brings it down to exactly this budget — the pairwise radius gate
  // with required link power in place of Euclidean length.
  std::vector<double> costliest_needed(n, 0.0);
  if (!opts.remove_all) {
    pool.parallel_for(n, [&](std::size_t u) {
      const auto uid = static_cast<graph::node_id>(u);
      double best = 0.0;
      std::size_t up = eoff[u];
      for (const graph::node_id v : g.neighbors(uid)) {
        const std::size_t i = v > uid ? up++ : edge_index(v, uid);
        if (!redundant[i]) best = std::max(best, powers[i]);
      }
      costliest_needed[u] = best;
    });
  }

  std::vector<unsigned char> drop(m, 0);
  res.removed_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          bool d = redundant[i] != 0;
          if (d && !opts.remove_all) {
            const auto [u, v] = edges[i];
            const double p = powers[i];
            d = opts.gate == pairwise_gate::either_endpoint
                    ? (p > costliest_needed[u] || p > costliest_needed[v])
                    : (p > costliest_needed[u] && p > costliest_needed[v]);
          }
          drop[i] = d ? 1 : 0;
          count += drop[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  // Connectivity repair (see the header comment): witness paths live in
  // the candidate graph, so for alpha > 2*pi/3 the surviving subgraph
  // of `g` is not *provably* in one piece per component of `g`. Re-add
  // dropped edges in ascending gain_edge_id order until the kept
  // partition matches `g`'s partition again. Serial and keyed on the
  // width-independent drop verdicts, hence deterministic; a no-op
  // whenever the drop set was already safe.
  if (res.removed_edges > 0) {
    graph::union_find uf(n);
    std::vector<std::size_t> dropped;
    dropped.reserve(res.removed_edges);
    for (std::size_t i = 0; i < m; ++i) {
      if (drop[i]) {
        dropped.push_back(i);
      } else {
        uf.unite(edges[i].u, edges[i].v);
      }
    }
    std::sort(dropped.begin(), dropped.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(powers[a], edges[a].v, edges[a].u) <
             std::tie(powers[b], edges[b].v, edges[b].u);
    });
    for (const std::size_t i : dropped) {
      if (uf.unite(edges[i].u, edges[i].v)) {
        drop[i] = 0;
        ++res.restored_edges;
      }
    }
    res.removed_edges -= res.restored_edges;
  }

  // Surviving topology as flat CSR: kept-degree count, prefix sum,
  // parallel fill.
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
