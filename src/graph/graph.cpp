#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace cbtc::graph {

void compact_rows(std::vector<std::size_t>& offsets, std::vector<node_id>& neighbors) {
  // Rows only shrink, so each one is rewritten in place at or before
  // where it started; offsets[u + 1] is still the old end when row u
  // is read.
  std::size_t w = 0;
  for (std::size_t u = 0; u + 1 < offsets.size(); ++u) {
    const auto lo = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(lo, hi);
    const std::size_t start = w;
    offsets[u] = start;
    for (auto it = lo; it != hi; ++it) {
      if (*it == u || (w > start && neighbors[w - 1] == *it)) continue;
      neighbors[w++] = *it;
    }
  }
  offsets.back() = w;
  neighbors.resize(w);
}

bool undirected_graph::has_edge(node_id u, node_id v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  const std::span<const node_id> list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

bool operator==(const undirected_graph& a, const undirected_graph& b) {
  if (a.num_nodes_ != b.num_nodes_ || a.num_edges_ != b.num_edges_) return false;
  for (node_id u = 0; u < a.num_nodes_; ++u) {
    const std::span<const node_id> la = a.neighbors(u);
    const std::span<const node_id> lb = b.neighbors(u);
    if (!std::equal(la.begin(), la.end(), lb.begin(), lb.end())) return false;
  }
  return true;
}

undirected_graph undirected_graph::induced(const std::vector<bool>& mask) const {
  const auto kept = [&mask](node_id u) { return u < mask.size() && mask[u]; };
  std::vector<std::size_t> offsets(num_nodes_ + 1, 0);
  std::vector<node_id> flat;
  flat.reserve(flat_.size());
  for (node_id u = 0; u < num_nodes_; ++u) {
    if (kept(u)) {
      for (const node_id v : neighbors(u)) {
        if (kept(v)) flat.push_back(v);
      }
    }
    offsets[u + 1] = flat.size();
  }
  return from_csr(std::move(offsets), std::move(flat));
}

undirected_graph undirected_graph::from_edges(std::size_t num_nodes,
                                              const std::vector<edge>& edges) {
  std::vector<std::size_t> offsets(num_nodes + 1, 0);
  for (const edge& e : edges) {
    assert(e.u < num_nodes && e.v < num_nodes);
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t u = 0; u < num_nodes; ++u) offsets[u + 1] += offsets[u];
  std::vector<node_id> flat(offsets[num_nodes]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const edge& e : edges) {
    flat[cursor[e.u]++] = e.v;
    flat[cursor[e.v]++] = e.u;
  }
  compact_rows(offsets, flat);
  return from_csr(std::move(offsets), std::move(flat));
}

undirected_graph undirected_graph::from_csr(std::vector<std::size_t> offsets,
                                            std::vector<node_id> neighbors) {
  assert(!offsets.empty());
  assert(offsets.front() == 0);
  assert(offsets.back() == neighbors.size());
  undirected_graph g;
  g.num_nodes_ = offsets.size() - 1;
  g.num_edges_ = neighbors.size() / 2;
#ifndef NDEBUG
  for (node_id u = 0; u < g.num_nodes_; ++u) {
    assert(offsets[u] <= offsets[u + 1]);
    const auto lo = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    assert(std::is_sorted(lo, hi));
    assert(std::adjacent_find(lo, hi) == hi);
    assert(!std::binary_search(lo, hi, u));
    for (auto it = lo; it != hi; ++it) {
      const auto vlo = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[*it]);
      const auto vhi = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[*it + 1]);
      assert(std::binary_search(vlo, vhi, u));  // symmetric
    }
  }
#endif
  g.offsets_ = std::move(offsets);
  g.flat_ = std::move(neighbors);
  return g;
}

std::vector<edge> undirected_graph::edges() const {
  std::vector<edge> out;
  out.reserve(num_edges_);
  for (node_id u = 0; u < num_nodes_; ++u) {
    for (node_id v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

}  // namespace cbtc::graph
