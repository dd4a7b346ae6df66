// Interference metrics.
//
// The paper's motivation (Section 1): "the greater the power with which
// a node transmits, the greater the likelihood of the transmission
// interfering with other transmissions." We use the standard
// coverage-based measure: the interference of an edge {u, v} is the
// number of other nodes inside the two disks of radius d(u,v) centered
// at u and v (everyone whose reception the link's traffic can disturb).
// A topology's interference is the average / maximum over its edges.
#pragma once

#include <cstddef>
#include <span>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Nodes (other than u, v) covered by the two d(u,v)-disks of the edge.
[[nodiscard]] std::size_t edge_interference(const undirected_graph& g,
                                            std::span<const geom::vec2> positions, node_id u,
                                            node_id v);

struct interference_stats {
  double mean{0.0};
  std::size_t max{0};
  std::size_t edges{0};
};

/// Coverage-based interference over all edges of the topology. Edges
/// are counted in fixed node blocks across `pool`; the per-edge counts
/// are integers, so the result is bitwise identical at every width.
[[nodiscard]] interference_stats topology_interference(
    const undirected_graph& g, std::span<const geom::vec2> positions,
    util::thread_pool& pool = util::serial_pool());

}  // namespace cbtc::graph
