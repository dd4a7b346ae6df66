// End-to-end topology construction: CBTC growth + optional optimizations.
//
// This is the main entry point of the library: it strings together the
// basic algorithm (Section 2) and the three optimizations (Section 3)
// in the order the paper composes them:
//   growth -> shrink-back (op1) -> asymmetric removal (op2, alpha <=
//   2*pi/3 only) -> pairwise removal (op3).
#pragma once

#include <span>

#include "algo/gain_removal.h"
#include "algo/oracle.h"
#include "algo/pairwise.h"
#include "algo/params.h"
#include "algo/shrink_back.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/power_model.h"
#include "radio/propagation.h"

namespace cbtc::algo {

struct optimization_set {
  bool shrink_back{false};
  /// Requested asymmetric edge removal; silently skipped when
  /// alpha > 2*pi/3 (the paper's "all applicable optimizations").
  bool asymmetric_removal{false};
  bool pairwise_removal{false};
  /// Run the gain-aware removal (algo/gain_removal.h) as the op3 pass.
  /// apply_optimizations also auto-routes `pairwise_removal` to this
  /// pass whenever the propagation is non-isotropic — Theorem 3.6's
  /// angle witness is unit-disk-only — so this knob is for forcing the
  /// gain-aware pass under isotropic propagation.
  bool gain_aware{false};
  /// Shared op3 tuning: gain-aware removal reuses remove_all and the
  /// endpoint gate (over required link power instead of length).
  pairwise_options pairwise{};

  [[nodiscard]] static optimization_set none() { return {}; }
  [[nodiscard]] static optimization_set all() {
    return {.shrink_back = true, .asymmetric_removal = true, .pairwise_removal = true};
  }
};

struct topology_result {
  /// Growth outcome after shrink-back (== raw growth if op1 disabled).
  cbtc_result growth;
  /// The final symmetric topology.
  graph::undirected_graph topology;
  /// Whether op2 actually ran (requested *and* alpha <= 2*pi/3).
  bool asymmetric_applied{false};
  /// op3 statistics (zeros if op3 disabled).
  std::size_t redundant_edges{0};
  std::size_t removed_edges{0};
  /// Whether op3 ran as the gain-aware pass (requested explicitly or
  /// auto-routed for a non-isotropic link).
  bool gain_aware_applied{false};
  /// Edges the gain-aware repair pass re-added (0 for the angle pass).
  std::size_t restored_edges{0};
};

/// Applies the selected optimizations to an already-grown CBTC outcome
/// (from the centralized oracle or the distributed protocol) and builds
/// the final symmetric topology. `grown.params` decides whether the
/// asymmetric removal is applicable. op3 runs as the gain-aware removal
/// whenever opts.gain_aware is set or the propagation is non-isotropic,
/// and as Theorem 3.6's angle pass otherwise.
/// This form builds the priced G_R itself when the gain-aware op3 runs.
[[nodiscard]] topology_result apply_optimizations(cbtc_result grown,
                                                  std::span<const geom::vec2> positions,
                                                  const radio::link_model& link,
                                                  const optimization_set& opts = {});

/// Same, with the run's G_R (in the same label space as `positions`):
/// the gain-aware op3 reads its witness paths and link prices from it,
/// so when runs_gain_aware_removal holds it must carry its price
/// column (graph::build_priced_max_power_graph); otherwise it is not
/// read and may have none.
[[nodiscard]] topology_result apply_optimizations(cbtc_result grown,
                                                  std::span<const geom::vec2> positions,
                                                  const radio::link_model& link,
                                                  const optimization_set& opts,
                                                  const graph::priced_graph& candidates);

/// Whether apply_optimizations runs op3 as the gain-aware pass (which
/// reads a priced G_R) for these options and this link.
[[nodiscard]] bool runs_gain_aware_removal(const optimization_set& opts,
                                           const radio::link_model& link);

/// Runs CBTC(alpha) and the selected optimizations over `positions`.
/// Equivalent to apply_optimizations(run_cbtc(...), positions, link, opts).
[[nodiscard]] topology_result build_topology(std::span<const geom::vec2> positions,
                                             const radio::link_model& link,
                                             const cbtc_params& params,
                                             const optimization_set& opts = {});

}  // namespace cbtc::algo
