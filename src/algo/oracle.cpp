#include "algo/oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/angle.h"
#include "geom/spatial_grid.h"
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

/// Candidate neighbors of one node, sorted by distance.
struct candidate {
  node_id id;
  double distance;
  double direction;
};

struct growth_arena;  // reused per-chunk growth buffers, defined below

/// Figure 1, executed exactly: p <- p0; while (p < P and gap-alpha(D)):
/// p <- min(Increase(p), P); broadcast and absorb everyone in range.
node_result run_discrete(std::span<const candidate> cands, const radio::power_model& power,
                         const cbtc_params& params, double p0, std::vector<double>& dirs) {
  node_result res;
  const double max_power = power.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    const double radius = power.range(p);
    while (next < cands.size() && cands[next].distance <= radius) {
      const candidate& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  return res;
}

/// Idealized continuous growth: admit candidates one at a time in
/// distance order; stop at the first prefix with no alpha-gap. Each
/// admission is its own power level, so shrink-back and reconfiguration
/// tags behave exactly like an infinitely fine discrete schedule.
node_result run_continuous(std::span<const candidate> cands, const radio::power_model& power,
                           const cbtc_params& params, std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const candidate& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    const double p = power.required_power(c.distance);
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
    res.level_powers.push_back(power.max_power());
    res.final_power = power.max_power();
    res.boundary = true;
  }
  return res;
}

/// Candidates under a per-link gain model: every node whose link to
/// `u` closes at maximum power, sorted by (required link power, id) —
/// the order the Increase(p) schedule discovers them in.
struct link_candidate {
  node_id id;
  double distance;
  double direction;
  double req_power;  // p(d) / gain: what closes the link
};

/// Reused per-chunk growth buffers: candidate discovery refills these
/// flat arrays instead of materializing fresh vectors for every node,
/// which is where the allocator traffic went at 100k-1M nodes. Growth
/// results are per-slot, so the chunking cannot change them.
struct growth_arena {
  std::vector<geom::point_index> hits;
  std::vector<candidate> cands;
  std::vector<link_candidate> link_cands;
  std::vector<double> dirs;
};

void candidates_into(node_id u, std::span<const geom::vec2> positions,
                     const geom::spatial_grid& grid, double max_range, growth_arena& arena) {
  arena.hits.clear();
  arena.cands.clear();
  const geom::vec2 pu = positions[u];
  grid.query_radius_into(pu, max_range, u, arena.hits);
  for (geom::point_index v : arena.hits) {
    const geom::vec2 d = positions[v] - pu;
    arena.cands.push_back({v, d.norm(), d.bearing()});
  }
  std::sort(arena.cands.begin(), arena.cands.end(), [](const candidate& a, const candidate& b) {
    return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
  });
}

/// Node u's candidates under per-link gains: its priced G_R row (every
/// node whose link to u closes at maximum power), sorted by (required
/// link power, id). Growth reads the prices; it evaluates no gain.
void row_candidates_into(node_id u, std::span<const geom::vec2> positions,
                         const graph::priced_graph& candidates, growth_arena& arena) {
  arena.link_cands.clear();
  const geom::vec2 pu = positions[u];
  candidates.any_link(u, [&](node_id v, double power) {
    const geom::vec2 d = positions[v] - pu;
    arena.link_cands.push_back({v, d.norm(), d.bearing(), power});
    return false;
  });
  std::sort(arena.link_cands.begin(), arena.link_cands.end(),
            [](const link_candidate& a, const link_candidate& b) {
              return a.req_power < b.req_power || (a.req_power == b.req_power && a.id < b.id);
            });
}

/// Keeps the documented node_result invariant (neighbors sorted by
/// (distance, id)) after a growth pass that discovered them in
/// required-power order.
void sort_neighbors_by_distance(node_result& res) {
  std::sort(res.neighbors.begin(), res.neighbors.end(),
            [](const neighbor_record& a, const neighbor_record& b) {
              return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
            });
}

/// Figure 1 under per-link gains: a broadcast at power p is decoded by
/// exactly the candidates with req_power <= p (one-ulp tolerance, the
/// medium's decodability test).
node_result run_discrete_link(std::span<const link_candidate> cands,
                              const radio::link_model& link, const cbtc_params& params,
                              double p0, std::vector<double>& dirs) {
  node_result res;
  const double max_power = link.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    while (next < cands.size() && cands[next].req_power <= p * (1.0 + 1e-12)) {
      const link_candidate& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  sort_neighbors_by_distance(res);
  return res;
}

/// Continuous growth under per-link gains: admit candidates one at a
/// time in required-power order; stop at the first prefix with no
/// alpha-gap.
node_result run_continuous_link(std::span<const link_candidate> cands,
                                const radio::link_model& link, const cbtc_params& params,
                                std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const link_candidate& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    const double p = std::min(c.req_power, link.max_power());
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
    res.level_powers.push_back(link.max_power());
    res.final_power = link.max_power();
    res.boundary = true;
  }
  sort_neighbors_by_distance(res);
  return res;
}

void check_params(const cbtc_params& params) {
  if (params.alpha <= 0.0 || params.alpha >= geom::two_pi)
    throw std::invalid_argument("run_cbtc: alpha must be in (0, 2*pi)");
  if (params.increase_factor <= 1.0)
    throw std::invalid_argument("run_cbtc: increase_factor must be > 1");
}

/// Runs grow_node(u, arena) for every node on the intra-instance pool.
/// Growth is a pure per-node computation, so the parallel loop is
/// deterministic by construction: node u's outcome lands in slot u no
/// matter which thread ran it.
template <class GrowNode>
cbtc_result grow_all(std::size_t n, const cbtc_params& params, const GrowNode& grow_node) {
  cbtc_result result;
  result.params = params;
  result.nodes.resize(n);
  util::thread_pool pool(params.intra_threads);
  pool.parallel_for_chunks(n, growth_chunk, [&](std::size_t lo, std::size_t hi) {
    growth_arena arena;
    for (std::size_t u = lo; u < hi; ++u) {
      result.nodes[u] = grow_node(static_cast<node_id>(u), arena);
    }
  });
  return result;
}

double initial_power(const radio::power_model& power, const cbtc_params& params) {
  return params.initial_power > 0.0 ? params.initial_power
                                    : power.required_power(power.max_range() / 16.0);
}

}  // namespace

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params) {
  check_params(params);
  if (positions.empty()) return cbtc_result{params, {}};
  if (!link.is_isotropic()) {
    util::thread_pool pool(params.intra_threads);
    return run_cbtc(positions, link, params,
                    graph::build_priced_max_power_graph(positions, link, pool));
  }

  // Without per-link gains required power is monotone in distance: the
  // distance-ordered kernels over a grid pruned at R.
  const radio::power_model& power = link.power();
  const double p0 = initial_power(power, params);
  const double reach = link.max_candidate_range();
  const geom::spatial_grid grid(positions, reach);
  const bool discrete = params.mode == growth_mode::discrete;
  return grow_all(positions.size(), params, [&](node_id u, growth_arena& arena) {
    candidates_into(u, positions, grid, reach, arena);
    return discrete ? run_discrete(arena.cands, power, params, p0, arena.dirs)
                    : run_continuous(arena.cands, power, params, arena.dirs);
  });
}

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params, const graph::priced_graph& candidates) {
  check_params(params);
  if (candidates.graph.num_nodes() != positions.size()) {
    throw std::invalid_argument("run_cbtc: candidate graph and positions differ in node count");
  }
  const double p0 = initial_power(link.power(), params);
  const bool discrete = params.mode == growth_mode::discrete;
  return grow_all(positions.size(), params, [&](node_id u, growth_arena& arena) {
    row_candidates_into(u, positions, candidates, arena);
    return discrete ? run_discrete_link(arena.link_cands, link, params, p0, arena.dirs)
                    : run_continuous_link(arena.link_cands, link, params, arena.dirs);
  });
}

}  // namespace cbtc::algo
