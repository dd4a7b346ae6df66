#include "algo/alpha_search.h"

#include "graph/euclidean.h"
#include "graph/traversal.h"

namespace cbtc::algo {

namespace {

/// Whether CBTC(alpha) over `gr` (G_R without a price column: the
/// isotropic growth reads its rows only) keeps G_R's connectivity.
bool preserved_at(std::span<const geom::vec2> positions, const radio::power_model& power,
                  const graph::priced_graph& gr, double alpha, growth_mode mode) {
  cbtc_params params;
  params.alpha = alpha;
  params.mode = mode;
  return graph::same_connectivity(run_cbtc(positions, power, params, gr).symmetric_closure(),
                                  gr.graph);
}

}  // namespace

alpha_scan_result scan_alpha(std::span<const geom::vec2> positions,
                             const radio::power_model& power, double lo, double hi,
                             std::size_t steps, growth_mode mode) {
  alpha_scan_result result;
  if (steps == 0) return result;
  const graph::priced_graph gr{graph::build_max_power_graph(positions, power)};

  bool prefix_intact = true;
  result.all_preserved = true;
  for (std::size_t i = 0; i < steps; ++i) {
    const double alpha =
        steps == 1 ? lo : lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps - 1);
    const bool ok = preserved_at(positions, power, gr, alpha, mode);
    result.samples.push_back({alpha, ok});
    if (ok && prefix_intact) result.safe_prefix_max = alpha;
    if (!ok) {
      prefix_intact = false;
      result.all_preserved = false;
    }
  }
  return result;
}

double max_preserving_alpha(std::span<const geom::vec2> positions,
                            const radio::power_model& power, double lo, double hi, double tol,
                            growth_mode mode) {
  const graph::priced_graph gr{graph::build_max_power_graph(positions, power)};
  if (!preserved_at(positions, power, gr, lo, mode)) return 0.0;
  if (preserved_at(positions, power, gr, hi, mode)) return hi;
  // Invariant: lo preserves, hi does not.
  while (hi - lo > tol) {
    const double mid = (lo + hi) / 2.0;
    if (preserved_at(positions, power, gr, mid, mode)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace cbtc::algo
