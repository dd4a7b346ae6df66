// Undirected graph over dense node ids.
//
// Topologies produced by CBTC and its optimizations are undirected
// graphs (symmetric closures / symmetric cores of the neighbor
// relation N_alpha). Adjacency lists are kept sorted so neighbor scans
// and set operations are deterministic.
//
// Two physical representations behind one logical interface:
//
//   * nested  — std::vector per node; mutable (add_edge / remove_edge
//     do sorted insertion). This is the representation incremental
//     code (dynamic runs, small gadgets) works against.
//   * flat CSR — one `offsets` array (n + 1 entries) plus one
//     `neighbors` array holding every adjacency list back to back.
//     Immutable and cache-dense; this is what the parallel
//     constructions (symmetric closure / core, pairwise removal,
//     max-power graph) assemble via counting pass + exclusive
//     prefix sum, and what the metric / verification loops iterate
//     at scale.
//
// neighbors(u) returns a span either way, so consumers never care.
// Mutating a CSR graph transparently converts it back to nested lists
// first (O(E) once, amortized against the edit session that follows).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace cbtc::graph {

/// An undirected edge with u < v canonically.
struct edge {
  node_id u{invalid_node};
  node_id v{invalid_node};

  [[nodiscard]] friend constexpr bool operator==(const edge&, const edge&) = default;
};

class undirected_graph {
 public:
  undirected_graph() = default;
  explicit undirected_graph(std::size_t num_nodes) : adj_(num_nodes), num_nodes_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge {u, v}; ignores duplicates and self-loops.
  /// Returns true if the edge was newly inserted. Converts a CSR graph
  /// back to nested lists first.
  bool add_edge(node_id u, node_id v);

  /// Removes the edge {u, v} if present; returns true if removed.
  bool remove_edge(node_id u, node_id v);

  [[nodiscard]] bool has_edge(node_id u, node_id v) const;
  [[nodiscard]] std::span<const node_id> neighbors(node_id u) const {
    if (is_flat()) {
      return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    }
    return adj_[u];
  }
  [[nodiscard]] std::size_t degree(node_id u) const { return neighbors(u).size(); }

  /// All edges with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<edge> edges() const;

  /// Logical equality: same node count and same sorted adjacency,
  /// regardless of which representation either side uses.
  friend bool operator==(const undirected_graph& a, const undirected_graph& b);

  /// Subgraph induced by the nodes with mask[u] == true (same node-id
  /// space; masked-out nodes become isolated). Used for survivor
  /// topologies after crash failures.
  [[nodiscard]] undirected_graph induced(const std::vector<bool>& mask) const;

  /// Adopts pre-built adjacency lists wholesale — O(1), no per-edge
  /// insertion. Contract (asserted in debug builds): every list sorted
  /// ascending, no self-loops or duplicates, and the relation is
  /// symmetric (v in adj[u] iff u in adj[v]). This is how per-node
  /// constructions (the STC topology, live-index snapshots) assemble
  /// their results.
  [[nodiscard]] static undirected_graph from_adjacency(std::vector<std::vector<node_id>> adj);

  /// Adopts a flat CSR adjacency wholesale: `offsets` has num_nodes + 1
  /// entries with offsets[0] == 0 and offsets.back() == neighbors.size();
  /// node u's sorted neighbor list is neighbors[offsets[u]..offsets[u+1]).
  /// Same contract as from_adjacency (asserted in debug builds).
  [[nodiscard]] static undirected_graph from_csr(std::vector<std::size_t> offsets,
                                                 std::vector<node_id> neighbors);

  /// True when the graph currently holds the flat CSR representation.
  [[nodiscard]] bool is_flat() const { return !offsets_.empty(); }

  /// A copy of this graph in CSR form (the copy is flat even if this
  /// graph is nested). Round-trip helper for tests and bulk consumers.
  [[nodiscard]] undirected_graph flattened() const;

 private:
  /// Converts CSR back to nested lists in place (no-op when nested).
  void materialize();

  std::vector<std::vector<node_id>> adj_;  // nested rep: each list sorted ascending
  std::vector<std::size_t> offsets_;       // CSR rep: num_nodes + 1 entries (empty when nested)
  std::vector<node_id> flat_;              // CSR rep: concatenated sorted lists
  std::size_t num_nodes_{0};
  std::size_t num_edges_{0};
};

}  // namespace cbtc::graph
