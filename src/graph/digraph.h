// Directed graph over dense node ids.
//
// The raw CBTC neighbor relation N_alpha is *directed* (Example 2.1 of
// the paper shows it need not be symmetric). The paper derives two
// undirected topologies from it:
//   - E_alpha  = symmetric closure  (u,v) in N or (v,u) in N   (Section 2)
//   - E-_alpha = symmetric core     (u,v) in N and (v,u) in N  (Section 3.2)
//
// Like undirected_graph, a digraph is one flat CSR out-adjacency
// (each out-list sorted ascending), built once — by from_csr from
// assembled rows or by from_arcs from an arc list — and then only read.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// The arc from -> to.
struct arc {
  node_id from{invalid_node};
  node_id to{invalid_node};
};

class digraph {
 public:
  /// The digraph on zero nodes.
  digraph() = default;

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_arcs() const { return num_arcs_; }

  [[nodiscard]] bool has_arc(node_id u, node_id v) const;

  [[nodiscard]] std::span<const node_id> out_neighbors(node_id u) const {
    return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  [[nodiscard]] std::size_t out_degree(node_id u) const { return out_neighbors(u).size(); }

  /// Symmetric closure: undirected edge {u,v} iff u->v or v->u.
  /// Built as flat CSR adjacency: the in-neighbor scatter is a
  /// two-pass count/fill with prefix-sum offsets, per-node merges run
  /// in parallel slots, and the result is adopted wholesale. Identical
  /// output for any pool width.
  [[nodiscard]] undirected_graph symmetric_closure(
      util::thread_pool& pool = util::serial_pool()) const;

  /// Symmetric core: undirected edge {u,v} iff u->v and v->u (flat
  /// CSR, identical output for any pool width).
  [[nodiscard]] undirected_graph symmetric_core(
      util::thread_pool& pool = util::serial_pool()) const;

  /// Same node count and same sorted out-lists.
  friend bool operator==(const digraph& a, const digraph& b);

  /// The digraph on `num_nodes` nodes with the given arcs, in any
  /// order; self-loops and duplicates dropped.
  [[nodiscard]] static digraph from_arcs(std::size_t num_nodes, const std::vector<arc>& arcs);

  /// Adopts a flat CSR out-adjacency wholesale (offsets as in
  /// undirected_graph::from_csr). Contract (asserted in debug builds):
  /// each list sorted ascending, no duplicates or self-loops.
  [[nodiscard]] static digraph from_csr(std::vector<std::size_t> offsets,
                                        std::vector<node_id> arcs);

 private:
  std::vector<std::size_t> offsets_;  // num_nodes + 1 entries (empty for the zero-node digraph)
  std::vector<node_id> flat_;         // concatenated sorted out-lists
  std::size_t num_nodes_{0};
  std::size_t num_arcs_{0};
};

}  // namespace cbtc::graph
