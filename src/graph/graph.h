// Undirected graph over dense node ids.
//
// Topologies produced by CBTC and its optimizations are undirected
// graphs (symmetric closures / symmetric cores of the neighbor
// relation N_alpha), each built once and then only read. The one
// representation is flat CSR: an `offsets` array (n + 1 entries) plus
// one `neighbors` array holding every adjacency list back to back,
// each list sorted ascending so neighbor scans and set operations are
// deterministic and cache-dense.
//
// There are two ways to build one and none to edit one:
//
//   * from_csr adopts rows a construction already assembled — the
//     parallel ones (symmetric closure / core, pairwise removal,
//     max-power graph) count, take an exclusive prefix sum and fill;
//   * from_edges builds the rows from an edge list in any order.
//
// A changed topology is a new graph (induced() for survivors, a fresh
// edge list for an augmented one).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.h"

namespace cbtc::graph {

/// An undirected edge with u < v canonically.
struct edge {
  node_id u{invalid_node};
  node_id v{invalid_node};

  [[nodiscard]] friend constexpr bool operator==(const edge&, const edge&) = default;
};

/// Sorts each CSR row in place, drops duplicates and self-loops, and
/// closes the gaps (offsets rewritten, `neighbors` shrunk). The list
/// builders end with it; a row filled in any order comes out in the
/// form from_csr adopts.
void compact_rows(std::vector<std::size_t>& offsets, std::vector<node_id>& neighbors);

class undirected_graph {
 public:
  /// The graph on zero nodes.
  undirected_graph() = default;

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  [[nodiscard]] bool has_edge(node_id u, node_id v) const;
  [[nodiscard]] std::span<const node_id> neighbors(node_id u) const {
    return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  [[nodiscard]] std::size_t degree(node_id u) const { return neighbors(u).size(); }

  /// All edges with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<edge> edges() const;

  /// Same node count and same sorted adjacency.
  friend bool operator==(const undirected_graph& a, const undirected_graph& b);

  /// Subgraph induced by the nodes with mask[u] == true (same node-id
  /// space; masked-out nodes become isolated). Used for survivor
  /// topologies after crash failures and battery deaths.
  [[nodiscard]] undirected_graph induced(const std::vector<bool>& mask) const;

  /// The graph on `num_nodes` nodes with the given edges: endpoints in
  /// either order, self-loops and duplicates dropped.
  [[nodiscard]] static undirected_graph from_edges(std::size_t num_nodes,
                                                   const std::vector<edge>& edges);

  /// Adopts a flat CSR adjacency wholesale: `offsets` has num_nodes + 1
  /// entries with offsets[0] == 0 and offsets.back() == neighbors.size();
  /// node u's neighbor list is neighbors[offsets[u]..offsets[u+1]).
  /// Contract (asserted in debug builds): every list sorted ascending,
  /// no self-loops or duplicates, and the relation is symmetric (v in
  /// u's list iff u in v's).
  [[nodiscard]] static undirected_graph from_csr(std::vector<std::size_t> offsets,
                                                 std::vector<node_id> neighbors);

 private:
  std::vector<std::size_t> offsets_;  // num_nodes + 1 entries (empty for the zero-node graph)
  std::vector<node_id> flat_;         // concatenated sorted lists
  std::size_t num_nodes_{0};
  std::size_t num_edges_{0};
};

}  // namespace cbtc::graph
