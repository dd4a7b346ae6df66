#include "graph/live_index.h"

#include <algorithm>

namespace cbtc::graph {

live_neighbor_index::live_neighbor_index(std::span<const geom::vec2> positions, double max_range)
    : max_range_(max_range),
      grid_(max_range > 0.0 ? max_range : 1.0),
      positions_(positions.begin(), positions.end()),
      live_(positions.size(), true),
      live_count_(positions.size()),
      rows_(positions.size()) {
  build();
}

live_neighbor_index::live_neighbor_index(std::span<const geom::vec2> positions,
                                         const radio::link_model& lm)
    : max_range_(lm.max_candidate_range()),
      link_(lm.is_isotropic() ? std::nullopt : std::optional<radio::link_model>(lm)),
      grid_(lm.max_candidate_range() > 0.0 ? lm.max_candidate_range() : 1.0),
      positions_(positions.begin(), positions.end()),
      live_(positions.size(), true),
      live_count_(positions.size()),
      rows_(positions.size()) {
  if (link_) {
    position_dependent_gain_ =
        link_->propagation().kind() == radio::propagation_kind::obstacle_field;
    if (position_dependent_gain_) pos_epoch_.assign(positions_.size(), 0);
    gain_rows_.resize(positions_.size());
  }
  build();
}

void live_neighbor_index::build() {
  if (max_range_ <= 0.0) return;  // degenerate radio: no edges ever
  // Insert points one at a time and query before inserting, so every
  // reachable pair links exactly once (filter_reachable is a no-op for
  // distance indexes — the query radius already decided).
  for (node_id u = 0; u < positions_.size(); ++u) {
    scratch_.clear();
    grid_.query_radius_into(positions_[u], max_range_, geom::spatial_grid::npos, scratch_);
    filter_reachable(u, scratch_);
    grid_.insert(u, positions_[u]);
    for (const geom::point_index v : scratch_) link(u, v);
  }
}

void live_neighbor_index::filter_reachable(node_id u,
                                           std::vector<geom::point_index>& candidates) const {
  if (!link_) return;  // distance index: the query radius already decided
  std::sort(candidates.begin(), candidates.end());
  std::vector<gain_entry>& row = gain_rows_[u];
  row_scratch_.clear();
  // Same one-ulp tolerance as link_model::reaches_at; the cached gain
  // is the exact double gain() returned, so verdicts are bitwise-
  // identical to the uncached filter.
  const double budget = link_->max_power() * (1.0 + 1e-12);
  // Squared feasible-distance bounds per gain: required_power(d) / g
  // <= budget iff d <= range(budget * g), so a candidate strictly
  // inside (outside) a 1e-6 relative band around that distance is
  // decided from its squared distance alone — no pow, no sqrt. The
  // band dwarfs the few-ulp spread between hypot-based distances and
  // raw squared distances, so only true boundary candidates fall
  // through to the exact legacy arithmetic.
  const auto entry_of = [&](node_id v, double g, std::uint64_t epoch) -> gain_entry {
    const double d_max = link_->power().range(budget * g);
    const double d_in = d_max * (1.0 - 1e-6);
    const double d_out = d_max * (1.0 + 1e-6);
    return {v, g, epoch, d_in * d_in, d_out * d_out};
  };
  std::size_t ri = 0;
  std::size_t out = 0;
  for (const geom::point_index v : candidates) {
    ++gain_lookups_;
    while (ri < row.size() && row[ri].v < v) ++ri;
    const gain_entry* e;
    if (ri < row.size() && row[ri].v == v &&
        (!position_dependent_gain_ || row[ri].peer_epoch == pos_epoch_[v])) {
      e = &row[ri];
    } else {
      ++gain_misses_;
      const double g = link_->gain(u, v, positions_[u], positions_[v]);
      const std::uint64_t epoch = position_dependent_gain_ ? pos_epoch_[v] : 0;
      if (ri < row.size() && row[ri].v == v) {
        row[ri] = entry_of(v, g, epoch);  // stale obstacle gain: refresh in place
        e = &row[ri];
      } else {
        row_scratch_.push_back(entry_of(v, g, epoch));
        e = &row_scratch_.back();
      }
    }
    const double d2 = geom::distance_sq(positions_[u], positions_[v]);
    bool reachable;
    if (d2 <= e->d2_in) {
      reachable = true;
    } else if (d2 > e->d2_out) {
      reachable = false;
    } else {
      const double d = geom::distance(positions_[u], positions_[v]);
      reachable = link_->power().required_power(d) / e->gain <= budget;
    }
    if (reachable) candidates[out++] = v;
  }
  candidates.resize(out);
  if (!row_scratch_.empty()) {
    const std::size_t mid = row.size();
    row.insert(row.end(), row_scratch_.begin(), row_scratch_.end());
    std::inplace_merge(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(mid), row.end(),
                       [](const gain_entry& a, const gain_entry& b) { return a.v < b.v; });
  }
}

void live_neighbor_index::link(node_id u, node_id v) {
  auto& au = rows_[u];
  au.insert(std::lower_bound(au.begin(), au.end(), v), v);
  auto& av = rows_[v];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++num_edges_;
  ++version_;
}

void live_neighbor_index::unlink(node_id u, node_id v) {
  auto& au = rows_[u];
  au.erase(std::lower_bound(au.begin(), au.end(), v));
  auto& av = rows_[v];
  av.erase(std::lower_bound(av.begin(), av.end(), u));
  --num_edges_;
  ++version_;
}

void live_neighbor_index::move(node_id u, const geom::vec2& p) {
  positions_[u] = p;
  if (position_dependent_gain_) {
    // Every gain involving u changed: u's own row wholesale, entries
    // for u in other rows lazily via the epoch check.
    ++pos_epoch_[u];
    gain_rows_[u].clear();
  }
  // The medium keeps moving crashed nodes; they re-enter the index at
  // their restart position, so only the stored position updates here.
  if (!live_[u]) return;
  note_churn(u);
  grid_.move(u, p);

  scratch_.clear();
  grid_.query_radius_into(p, max_range_, u, scratch_);
  filter_reachable(u, scratch_);
  std::sort(scratch_.begin(), scratch_.end());

  // Diff the sorted old and new neighbor sets.
  const std::vector<node_id> old = rows_[u];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old.size() || j < scratch_.size()) {
    if (j == scratch_.size() || (i < old.size() && old[i] < scratch_[j])) {
      unlink(u, old[i]);
      ++i;
    } else if (i == old.size() || scratch_[j] < old[i]) {
      link(u, scratch_[j]);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

void live_neighbor_index::erase(node_id u) {
  if (!live_[u]) return;
  note_churn(u);
  const std::vector<node_id> nbrs = rows_[u];
  for (const node_id v : nbrs) unlink(u, v);
  grid_.erase(u);
  live_[u] = false;
  --live_count_;
  ++version_;
}

void live_neighbor_index::insert(node_id u, const geom::vec2& p) {
  if (live_[u]) return;
  note_churn(u);
  positions_[u] = p;
  if (position_dependent_gain_) {
    ++pos_epoch_[u];
    gain_rows_[u].clear();
  }
  grid_.insert(u, p);
  live_[u] = true;
  ++live_count_;
  ++version_;
  scratch_.clear();
  grid_.query_radius_into(p, max_range_, u, scratch_);
  filter_reachable(u, scratch_);
  std::sort(scratch_.begin(), scratch_.end());
  for (const geom::point_index v : scratch_) link(u, v);
}

undirected_graph live_neighbor_index::graph() const {
  // The rows are sorted and symmetric already (link / unlink keep them
  // so): the snapshot is their concatenation.
  std::vector<std::size_t> offsets(rows_.size() + 1, 0);
  for (std::size_t u = 0; u < rows_.size(); ++u) offsets[u + 1] = offsets[u] + rows_[u].size();
  std::vector<node_id> flat;
  flat.reserve(offsets.back());
  for (const std::vector<node_id>& row : rows_) flat.insert(flat.end(), row.begin(), row.end());
  return undirected_graph::from_csr(std::move(offsets), std::move(flat));
}

closure_mirror::closure_mirror(std::size_t n) : rows_(n), live_(n, true), live_count_(n) {}

void closure_mirror::add_arc(node_id u, node_id v) {
  if (u == v) return;
  const auto bump = [](std::vector<entry>& list, node_id w) {
    const auto it = std::lower_bound(list.begin(), list.end(), w,
                                     [](const entry& e, node_id x) { return e.v < x; });
    if (it != list.end() && it->v == w) {
      ++it->arcs;
    } else {
      list.insert(it, {w, 1});
    }
  };
  bump(rows_[u], v);
  bump(rows_[v], u);
}

void closure_mirror::remove_arc(node_id u, node_id v) {
  if (u == v) return;
  const auto drop = [](std::vector<entry>& list, node_id w) {
    const auto it = std::lower_bound(list.begin(), list.end(), w,
                                     [](const entry& e, node_id x) { return e.v < x; });
    if (it == list.end() || it->v != w) return;  // tolerated: erase of unknown arc
    if (--it->arcs == 0) list.erase(it);
  };
  drop(rows_[u], v);
  drop(rows_[v], u);
}

void closure_mirror::set_live(node_id u, bool up) {
  if (live_[u] == up) return;
  live_[u] = up;
  if (up) {
    ++live_count_;
  } else {
    --live_count_;
  }
}

undirected_graph closure_mirror::live_graph() const {
  const std::size_t n = rows_.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<node_id> flat;
  for (node_id u = 0; u < n; ++u) {
    if (live_[u]) {
      for (const entry& e : rows_[u]) {
        if (live_[e.v]) flat.push_back(e.v);
      }
    }
    offsets[u + 1] = flat.size();
  }
  return undirected_graph::from_csr(std::move(offsets), std::move(flat));
}

namespace {

// Union-find over caller-owned scratch: union by size, path halving.
node_id uf_find(std::vector<node_id>& parent, node_id x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void uf_reset(std::size_t n, std::vector<node_id>& parent, std::vector<std::uint32_t>& size) {
  parent.resize(n);
  size.assign(n, 1);
  for (node_id u = 0; u < n; ++u) parent[u] = u;
}

/// Merges the sets of `a` and `b`; false when they already shared one.
bool uf_unite(std::vector<node_id>& parent, std::vector<std::uint32_t>& size, node_id a,
              node_id b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  if (a == b) return false;
  if (size[a] < size[b]) std::swap(a, b);
  parent[b] = a;
  size[a] += size[b];
  return true;
}

/// Forest of an adjacency view `view(u, emit)` (every edge visible from
/// both endpoints), path-compressed so parent[u] is u's root. Returns the
/// number of components, isolated nodes included.
template <class NeighborView>
std::size_t build_forest(std::size_t n, NeighborView&& view, std::vector<node_id>& parent,
                         std::vector<std::uint32_t>& size) {
  uf_reset(n, parent, size);
  std::size_t sets = n;
  for (node_id u = 0; u < n; ++u) {
    view(u, [&](node_id v) {
      if (v > u && uf_unite(parent, size, u, v)) --sets;
    });
  }
  for (node_id u = 0; u < n; ++u) parent[u] = uf_find(parent, u);
  return sets;
}

}  // namespace

connectivity_verdict evaluate_connectivity(const closure_mirror& topology,
                                           const live_neighbor_index& max_power,
                                           connectivity_scratch& scratch,
                                           util::thread_pool& pool) {
  const std::size_t n = max_power.num_nodes();
  const std::size_t live = max_power.live_count();
  const bool comparable = topology.num_nodes() == n;

  // Spanning certificate over closure ∩ G_R. Its edges join nodes live
  // in both views, so once they reach every index-live node, equal
  // live counts make the two live sets equal and both verdicts hold.
  // The membership tests (the bulk of the work) run per node block on
  // the pool; the union-find over the surviving edges is serial.
  if (comparable && topology.live_count() == live) {
    auto& blocks = scratch.edge_blocks;
    blocks.resize((n + util::reduce_block - 1) / util::reduce_block);
    pool.parallel_for_chunks(n, util::reduce_block, [&](std::size_t lo, std::size_t hi) {
      std::vector<std::pair<node_id, node_id>>& out = blocks[lo / util::reduce_block];
      out.clear();
      for (auto u = static_cast<node_id>(lo); u < hi; ++u) {
        const std::span<const node_id> gr = max_power.neighbors(u);
        if (gr.empty()) continue;
        topology.for_each_live_neighbor(u, [&](node_id v) {
          if (v > u && std::binary_search(gr.begin(), gr.end(), v)) out.emplace_back(u, v);
        });
      }
    });
    uf_reset(n, scratch.root_a, scratch.size_a);
    std::size_t sets = live;
    for (const auto& block : blocks) {
      for (const auto& [u, v] : block) {
        if (uf_unite(scratch.root_a, scratch.size_a, u, v)) --sets;
      }
    }
    if (sets <= 1) return {.preserved = true, .field_connected = true};
  }

  // One pass over G_R. Down nodes have no index edges, so they are
  // exactly the n - live singletons beside the live components.
  connectivity_verdict out;
  const std::size_t gr_sets = build_forest(
      n,
      [&](node_id u, auto&& emit) {
        for (const node_id v : max_power.neighbors(u)) emit(v);
      },
      scratch.root_b, scratch.size_b);
  out.field_connected = live <= 1 || gr_sets - (n - live) == 1;
  if (!comparable) return out;

  // Partition equality: equal component counts + "the closure refines
  // G_R" (every closure edge stays inside one G_R component).
  const std::size_t closure_sets = build_forest(
      n, [&](node_id u, auto&& emit) { topology.for_each_live_neighbor(u, emit); },
      scratch.root_a, scratch.size_a);
  if (closure_sets != gr_sets) return out;
  bool within = true;
  for (node_id u = 0; u < n && within; ++u) {
    topology.for_each_live_neighbor(u, [&](node_id v) {
      if (v > u && scratch.root_b[u] != scratch.root_b[v]) within = false;
    });
  }
  out.preserved = within;
  return out;
}

}  // namespace cbtc::graph
