#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "util/parallel.h"

namespace cbtc::graph {

component_labels connected_components(const undirected_graph& g) {
  const std::size_t n = g.num_nodes();
  component_labels result;
  result.label.assign(n, invalid_node);

  std::deque<node_id> queue;
  for (node_id start = 0; start < n; ++start) {
    if (result.label[start] != invalid_node) continue;
    const auto comp = static_cast<node_id>(result.count++);
    result.label[start] = comp;
    queue.push_back(start);
    while (!queue.empty()) {
      const node_id u = queue.front();
      queue.pop_front();
      for (node_id v : g.neighbors(u)) {
        if (result.label[v] == invalid_node) {
          result.label[v] = comp;
          queue.push_back(v);
        }
      }
    }
  }
  return result;
}

bool is_connected(const undirected_graph& g) {
  return connected_components(g).count <= 1;
}

bool reachable(const undirected_graph& g, node_id u, node_id v) {
  return connected_components(g).same_component(u, v);
}

namespace {

node_id uf_find(std::vector<node_id>& parent, node_id x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

/// Builds the component forest of `g` into `parent`/`size` (union by
/// size), flattens every node to its root, and returns the component
/// count. Reuses the vectors' capacity across calls.
std::size_t uf_build(const undirected_graph& g, std::vector<node_id>& parent,
                     std::vector<std::uint32_t>& size) {
  const std::size_t n = g.num_nodes();
  parent.resize(n);
  size.assign(n, 1);
  for (node_id u = 0; u < n; ++u) parent[u] = u;
  std::size_t sets = n;
  for (node_id u = 0; u < n; ++u) {
    for (node_id v : g.neighbors(u)) {
      if (v <= u) continue;  // each edge once
      node_id ra = uf_find(parent, u);
      node_id rb = uf_find(parent, v);
      if (ra == rb) continue;
      if (size[ra] < size[rb]) std::swap(ra, rb);
      parent[rb] = ra;
      size[ra] += size[rb];
      --sets;
    }
  }
  // Flatten so the verification phase can read roots concurrently
  // without mutating the forest.
  for (node_id u = 0; u < n; ++u) parent[u] = uf_find(parent, u);
  return sets;
}

/// Every edge of `a` inside one component of `b`'s forest (root_b[u] is u's root)?
bool edges_within(const undirected_graph& a, const std::vector<node_id>& root_b, std::size_t lo,
                  std::size_t hi) {
  for (std::size_t u = lo; u < hi; ++u) {
    for (node_id v : a.neighbors(static_cast<node_id>(u))) {
      if (v > u && root_b[u] != root_b[v]) return false;
    }
  }
  return true;
}

}  // namespace

bool same_connectivity(const undirected_graph& a, const undirected_graph& b) {
  connectivity_scratch scratch;
  return same_connectivity(a, b, scratch);
}

bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                       connectivity_scratch& scratch) {
  if (a.num_nodes() != b.num_nodes()) return false;
  if (uf_build(a, scratch.root_a, scratch.size_a) != uf_build(b, scratch.root_b, scratch.size_b)) {
    return false;
  }
  // Equal component counts + "a refines b" (every a-edge stays inside
  // one b-component, hence every a-component sits inside one
  // b-component) force the partitions to be equal.
  return edges_within(a, scratch.root_b, 0, a.num_nodes());
}

bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                       util::thread_pool& pool, connectivity_scratch& scratch) {
  if (a.num_nodes() != b.num_nodes()) return false;
  if (uf_build(a, scratch.root_a, scratch.size_a) != uf_build(b, scratch.root_b, scratch.size_b)) {
    return false;
  }
  return pool.reduce<bool>(
      a.num_nodes(), true,
      [&](std::size_t lo, std::size_t hi) { return edges_within(a, scratch.root_b, lo, hi); },
      [](bool& total, const bool& part) { total = total && part; });
}

std::vector<std::uint32_t> bfs_distances(const undirected_graph& g, node_id from) {
  constexpr auto inf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_nodes(), inf);
  std::deque<node_id> queue;
  dist[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const node_id u = queue.front();
    queue.pop_front();
    for (node_id v : g.neighbors(u)) {
      if (dist[v] == inf) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<node_id> bfs_path(const undirected_graph& g, node_id from, node_id to) {
  std::vector<node_id> parent(g.num_nodes(), invalid_node);
  std::vector<char> seen(g.num_nodes(), 0);
  std::deque<node_id> queue;
  seen[from] = 1;
  queue.push_back(from);
  while (!queue.empty() && !seen[to]) {
    const node_id u = queue.front();
    queue.pop_front();
    for (node_id v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  if (!seen[to]) return {};
  std::vector<node_id> path;
  for (node_id cur = to; cur != invalid_node; cur = parent[cur]) {
    path.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cbtc::graph
