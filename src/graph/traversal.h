// Connectivity queries: components, reachability, BFS paths.
//
// The paper's central correctness claim is a connectivity-preservation
// statement ("u and v are connected in G_alpha iff they are connected
// in G_R"), so component structure comparison is the workhorse of the
// test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace cbtc::util {
class thread_pool;
}

namespace cbtc::graph {

struct component_labels {
  std::vector<node_id> label;  // component id per node, dense in [0, count)
  std::size_t count{0};

  [[nodiscard]] bool same_component(node_id u, node_id v) const { return label[u] == label[v]; }
};

/// Connected components via BFS.
[[nodiscard]] component_labels connected_components(const undirected_graph& g);

/// True if the whole graph is one component (trivially true for n <= 1).
[[nodiscard]] bool is_connected(const undirected_graph& g);

/// True if u and v are in the same component.
[[nodiscard]] bool reachable(const undirected_graph& g, node_id u, node_id v);

/// Reusable buffers for same_connectivity and
/// graph::evaluate_connectivity: two disjoint-set forests, plus the
/// latter's certificate edges per node block. Event-driven callers (the
/// dynamic engine evaluates connectivity at every topology-changing
/// event) hold one across calls so the comparison performs no
/// allocations after the first use.
struct connectivity_scratch {
  std::vector<node_id> root_a;
  std::vector<node_id> root_b;
  std::vector<std::uint32_t> size_a;
  std::vector<std::uint32_t> size_b;
  std::vector<std::vector<std::pair<node_id, node_id>>> edge_blocks;
};

/// True if `a` and `b` have identical component *partitions* — the
/// paper's preservation property: every pair connected in one is
/// connected in the other. Requires equal node counts.
///
/// Implemented as a union-find comparison, not a BFS pair: build both
/// forests (union by size + path halving, O(m alpha)), compare
/// component counts, then check that every edge of `a` stays inside
/// one `b`-component — a partition that refines another with the same
/// block count equals it.
[[nodiscard]] bool same_connectivity(const undirected_graph& a, const undirected_graph& b);

/// Same, with caller-owned scratch (no per-call allocations).
[[nodiscard]] bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                                     connectivity_scratch& scratch);

/// Same, with the edge-containment check parallelized over fixed
/// node blocks on `pool` (the forests are path-compressed first, so the
/// parallel phase only reads). Identical verdict for any pool width.
[[nodiscard]] bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                                     util::thread_pool& pool, connectivity_scratch& scratch);

/// Shortest path in hops from `from` to `to`; empty if unreachable.
/// The returned path includes both endpoints.
[[nodiscard]] std::vector<node_id> bfs_path(const undirected_graph& g, node_id from, node_id to);

/// Hop distances from `from` to every node (invalid_node if unreachable
/// is encoded as max uint32).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const undirected_graph& g, node_id from);

}  // namespace cbtc::graph
