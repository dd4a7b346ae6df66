// Cross-cutting invariant checks used by tests, examples, and benches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::algo {

struct invariant_report {
  bool subgraph_of_max_power{false};    // every edge also in G_R
  bool connectivity_preserved{false};   // same component partition as G_R
  bool radii_within_max_range{false};   // no node needs more than R
  std::vector<std::string> violations;  // human-readable details

  [[nodiscard]] bool ok() const {
    return subgraph_of_max_power && connectivity_preserved && radii_within_max_range;
  }
};

/// Checks the paper's three desiderata for a topology-control output
/// (Section 1) against the caller's max-power graph `max_power_graph`
/// (graph::build_max_power_graph(positions, link)): subgraph of G_R,
/// connectivity preservation, and no node transmitting beyond the
/// maximum. Under isotropic propagation the last is the paper's "no
/// radius beyond R"; under per-link gains it generalizes to "no node
/// needs more than the maximum power P on any incident link". The
/// per-node scan runs on `pool`; the report (flags and violation
/// order) is identical for any pool width.
[[nodiscard]] invariant_report check_invariants(const graph::undirected_graph& topology,
                                                std::span<const geom::vec2> positions,
                                                const radio::link_model& link,
                                                const graph::undirected_graph& max_power_graph,
                                                util::thread_pool& pool = util::serial_pool());

/// The same checks with G_R held in a relabeled space (the engine's
/// Morton pipeline labels): original node u is label label_of[u] of
/// `max_power_graph`, and `relabeled_topology` is `topology` under the
/// same labels. The partition comparison runs on the relabeled pair;
/// the edge and reach scans walk `topology` in original ids. The report
/// is identical to the original-label call's: the same flags, and the
/// same violations, naming original ids in the same order.
[[nodiscard]] invariant_report check_invariants(const graph::undirected_graph& topology,
                                                const graph::undirected_graph& relabeled_topology,
                                                std::span<const std::uint32_t> label_of,
                                                std::span<const geom::vec2> positions,
                                                const radio::link_model& link,
                                                const graph::undirected_graph& max_power_graph,
                                                util::thread_pool& pool = util::serial_pool());

}  // namespace cbtc::algo
