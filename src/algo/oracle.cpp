#include "algo/oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/angle.h"
#include "graph/euclidean.h"
#include "util/parallel.h"

namespace cbtc::algo {

bool node_result::knows(node_id v) const {
  return std::any_of(neighbors.begin(), neighbors.end(),
                     [v](const neighbor_record& r) { return r.id == v; });
}

std::vector<double> node_result::directions() const {
  std::vector<double> dirs;
  dirs.reserve(neighbors.size());
  for (const neighbor_record& r : neighbors) {
    // A neighbor at distance zero has no meaningful bearing (the paper
    // implicitly assumes distinct positions); it contributes no
    // directional coverage.
    if (r.distance > 0.0) dirs.push_back(r.direction);
  }
  return dirs;
}

double node_result::out_radius() const {
  double r = 0.0;
  for (const neighbor_record& rec : neighbors) r = std::max(r, rec.distance);
  return r;
}

graph::digraph cbtc_result::neighbor_digraph() const {
  // Row u is N_alpha(u) in discovery order; compact_rows sorts it.
  const std::size_t n = nodes.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + nodes[u].neighbors.size();
  std::vector<node_id> arcs(offsets[n]);
  for (std::size_t u = 0; u < n; ++u) {
    std::transform(nodes[u].neighbors.begin(), nodes[u].neighbors.end(),
                   arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
                   [](const neighbor_record& r) { return r.id; });
  }
  graph::compact_rows(offsets, arcs);
  return graph::digraph::from_csr(std::move(offsets), std::move(arcs));
}

graph::undirected_graph cbtc_result::symmetric_closure(util::thread_pool& pool) const {
  return neighbor_digraph().symmetric_closure(pool);
}

graph::undirected_graph cbtc_result::symmetric_core(util::thread_pool& pool) const {
  return neighbor_digraph().symmetric_core(pool);
}

std::size_t cbtc_result::boundary_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(), [](const node_result& n) { return n.boundary; }));
}

namespace {

/// One growth chunk: each worker refills one arena per 64 nodes
/// instead of allocating per node.
constexpr std::size_t growth_chunk = 64;

/// One candidate neighbor of a node: an entry of its G_R row, with the
/// key Figure 1 discovers it by (see distance_order / power_order).
struct candidate {
  node_id id;
  double key;
  double distance;
  double direction;
};

/// Reused per-chunk growth buffers: candidate discovery refills these
/// flat arrays instead of materializing fresh vectors for every node,
/// which is where the allocator traffic went at 100k-1M nodes. Growth
/// results are per-slot, so the chunking cannot change them.
struct growth_arena {
  std::vector<candidate> cands;
  std::vector<double> dirs;
};

/// Isotropic links: p(d) is monotone in d, so the discovery order is
/// distance order and a broadcast at power p reaches d <= range(p).
/// Candidates come from G_R's rows alone; no price column is read.
struct distance_order {
  const radio::power_model& power;
  static constexpr bool discovers_by_distance = true;

  void candidates_into(node_id u, std::span<const geom::vec2> positions,
                       const graph::priced_graph& gr, std::vector<candidate>& out) const {
    const geom::vec2 pu = positions[u];
    for (const node_id v : gr.graph.neighbors(u)) {
      const geom::vec2 d = positions[v] - pu;
      const double dist = d.norm();
      out.push_back({v, dist, dist, d.bearing()});
    }
  }
  /// Largest key a broadcast at power p discovers.
  [[nodiscard]] double reach(double p) const { return power.range(p); }
  /// The power level of a continuous-mode admission.
  [[nodiscard]] double level_power(const candidate& c) const {
    return power.required_power(c.distance);
  }
};

/// Per-link gains: the discovery order is required link power
/// p(d) / gain, read from G_R's price column (growth evaluates no
/// gain), and a broadcast at power p is decoded by exactly the links
/// with req <= p (one-ulp tolerance, the medium's decodability test).
struct power_order {
  double max_power;
  static constexpr bool discovers_by_distance = false;

  void candidates_into(node_id u, std::span<const geom::vec2> positions,
                       const graph::priced_graph& gr, std::vector<candidate>& out) const {
    const geom::vec2 pu = positions[u];
    gr.any_link(u, [&](node_id v, double power) {
      const geom::vec2 d = positions[v] - pu;
      out.push_back({v, power, d.norm(), d.bearing()});
      return false;
    });
  }
  [[nodiscard]] double reach(double p) const { return p * (1.0 + 1e-12); }
  [[nodiscard]] double level_power(const candidate& c) const {
    return std::min(c.key, max_power);
  }
};

/// Keeps the documented node_result invariant (neighbors sorted by
/// (distance, id)) after a growth pass that discovered them in
/// required-power order.
template <class Order>
void sort_neighbors_by_distance(node_result& res) {
  if constexpr (!Order::discovers_by_distance) {
    std::sort(res.neighbors.begin(), res.neighbors.end(),
              [](const neighbor_record& a, const neighbor_record& b) {
                return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
              });
  }
}

/// Figure 1, executed exactly: p <- p0; while (p < P and gap-alpha(D)):
/// p <- min(Increase(p), P); broadcast and absorb everyone it reaches.
template <class Order>
node_result run_discrete(std::span<const candidate> cands, const Order& order,
                         const cbtc_params& params, double p0, double max_power,
                         std::vector<double>& dirs) {
  node_result res;
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    const double reach = order.reach(p);
    while (next < cands.size() && cands[next].key <= reach) {
      const candidate& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  sort_neighbors_by_distance<Order>(res);
  return res;
}

/// Idealized continuous growth: admit candidates one at a time in
/// discovery order; stop at the first prefix with no alpha-gap. Each
/// admission is its own power level, so shrink-back and reconfiguration
/// tags behave exactly like an infinitely fine discrete schedule.
template <class Order>
node_result run_continuous(std::span<const candidate> cands, const Order& order,
                           const cbtc_params& params, double max_power,
                           std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const candidate& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    const double p = order.level_power(c);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
    if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
  }
  if (!covered) covered = !geom::has_alpha_gap(dirs, params.alpha);

  if (covered) {
    res.final_power = res.level_powers.empty() ? 0.0 : res.level_powers.back();
    res.boundary = false;
  } else {
    // Ran out of reachable nodes with a gap left: boundary node, which
    // per the algorithm broadcasts at maximum power.
    res.level_powers.push_back(max_power);
    res.final_power = max_power;
    res.boundary = true;
  }
  sort_neighbors_by_distance<Order>(res);
  return res;
}

void check_params(const cbtc_params& params) {
  if (params.alpha <= 0.0 || params.alpha >= geom::two_pi)
    throw std::invalid_argument("run_cbtc: alpha must be in (0, 2*pi)");
  if (params.increase_factor <= 1.0)
    throw std::invalid_argument("run_cbtc: increase_factor must be > 1");
}

/// Grows every node over its G_R row on the intra-instance pool.
/// Growth is a pure per-node computation, so the parallel loop is
/// deterministic by construction: node u's outcome lands in slot u no
/// matter which thread ran it.
template <class Order>
cbtc_result grow_all(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params, const graph::priced_graph& gr,
                     const Order& order) {
  const radio::power_model& power = link.power();
  const double p0 = params.initial_power > 0.0 ? params.initial_power
                                               : power.required_power(power.max_range() / 16.0);
  const double max_power = link.max_power();
  const bool discrete = params.mode == growth_mode::discrete;
  cbtc_result result;
  result.params = params;
  result.nodes.resize(positions.size());
  util::thread_pool pool(params.intra_threads);
  pool.parallel_for_chunks(positions.size(), growth_chunk, [&](std::size_t lo, std::size_t hi) {
    growth_arena arena;
    for (std::size_t u = lo; u < hi; ++u) {
      arena.cands.clear();
      order.candidates_into(static_cast<node_id>(u), positions, gr, arena.cands);
      std::sort(arena.cands.begin(), arena.cands.end(),
                [](const candidate& a, const candidate& b) {
                  return a.key < b.key || (a.key == b.key && a.id < b.id);
                });
      result.nodes[u] = discrete
                            ? run_discrete(arena.cands, order, params, p0, max_power, arena.dirs)
                            : run_continuous(arena.cands, order, params, max_power, arena.dirs);
    }
  });
  return result;
}

}  // namespace

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params) {
  check_params(params);
  util::thread_pool pool(params.intra_threads);
  return run_cbtc(positions, link, params,
                  link.is_isotropic()
                      ? graph::priced_graph{graph::build_max_power_graph(positions, link, pool)}
                      : graph::build_priced_max_power_graph(positions, link, pool));
}

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params, const graph::priced_graph& candidates) {
  check_params(params);
  if (candidates.graph.num_nodes() != positions.size()) {
    throw std::invalid_argument("run_cbtc: candidate graph and positions differ in node count");
  }
  if (link.is_isotropic()) {
    return grow_all(positions, link, params, candidates, distance_order{link.power()});
  }
  if (!candidates.has_prices()) {
    throw std::invalid_argument("run_cbtc: growth under per-link gains needs a priced G_R");
  }
  return grow_all(positions, link, params, candidates, power_order{link.max_power()});
}

}  // namespace cbtc::algo
