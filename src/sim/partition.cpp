#include "sim/partition.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace cbtc::sim {

namespace {
// Identifies the lane a worker thread is draining, so schedule calls
// made from inside event handlers land in the right place without
// touching the (serial-only) main queue.
thread_local const partitioned_simulator* t_active_sim = nullptr;
thread_local std::uint32_t t_region = 0;
}  // namespace

partitioned_simulator::partitioned_simulator(std::size_t num_nodes, const config& cfg)
    : lanes_(cfg.regions > 0 ? cfg.regions : 1),
      region_of_(num_nodes, 0),
      node_seq_(num_nodes, 0),
      region_events_(cfg.regions > 0 ? cfg.regions : 1, 0),
      pool_(cfg.pool),
      lookahead_(cfg.lookahead),
      serial_batch_limit_(cfg.serial_batch_limit) {
  assert(lookahead_ > 0.0 && "conservative sync needs a positive lookahead");
}

bool partitioned_simulator::in_event_phase() { return t_active_sim != nullptr; }

std::uint32_t partitioned_simulator::current_region() { return t_region; }

void partitioned_simulator::set_region(graph::node_id u, std::uint32_t region) {
  assert(!in_phase_ && "region migration is a serial (class-0) operation");
  assert(region < lanes_.size());
  if (region_of_[u] == region) return;
  region_of_[u] = region;
  ++stats_.migrations;
}

void partitioned_simulator::schedule_at(time_point t, action fn) {
  // Global events mutate shared state; creating one from inside a
  // parallel phase would be a synchronization bug in the caller.
  assert(t_active_sim != this && "class-0 events must not be scheduled from handlers");
  if (t < now_) t = now_;
  global_.push({event_key{t, 0, 0, 0, global_seq_++, 0}, std::move(fn)});
}

void partitioned_simulator::append(bucket& b, event&& ev) {
  if (b.empty() || b.back().size() == chunk_events) {
    if (free_chunks_.empty()) {
      b.emplace_back().reserve(chunk_events);
    } else {
      b.push_back(std::move(free_chunks_.back()));
      free_chunks_.pop_back();
    }
  }
  b.back().push_back(std::move(ev));
}

void partitioned_simulator::schedule_node(time_point t, graph::node_id owner, action fn) {
  if (t < now_) t = now_;
  if (t_active_sim == this) {
    const std::uint64_t seq = node_seq_[owner]++;
    lane& L = lanes_[t_region];
    if (t <= now_) {
      // Same-instant self event (retry stagger): provably lane-local,
      // because the scheduling handler belongs to `owner` itself.
      if (region_of_[owner] != t_region) violations_.fetch_add(1, std::memory_order_relaxed);
      assert(region_of_[owner] == t_region);
      L.ready.push({event_key{now_, 1, owner, 0, seq, 0}, std::move(fn)});
    } else {
      L.outbox.push_back({event_key{t, 1, owner, 0, seq, 0}, std::move(fn)});
    }
    return;
  }
  if (owner >= node_seq_.size()) node_seq_.resize(owner + 1, 0);
  append(buckets_[t], {event_key{t, 1, owner, 0, node_seq_[owner]++, 0}, std::move(fn)});
}

void partitioned_simulator::schedule_delivery(time_point t, graph::node_id to,
                                              graph::node_id from, std::uint64_t tx_seq,
                                              std::uint32_t copy, action fn) {
  if (t < now_) t = now_;
  if (t_active_sim == this) {
    // Cross-region influence must stay outside the conservative
    // window; the channel's minimum delay (== lookahead) guarantees it.
    if (t < now_ + lookahead_) violations_.fetch_add(1, std::memory_order_relaxed);
    lanes_[t_region].outbox.push_back({event_key{t, 2, to, from, tx_seq, copy}, std::move(fn)});
    return;
  }
  append(buckets_[t], {event_key{t, 2, to, from, tx_seq, copy}, std::move(fn)});
}

void partitioned_simulator::drain_lane(std::uint32_t r) {
  lane& L = lanes_[r];
  t_active_sim = this;
  t_region = r;
  // The batch arrives in bucket order; sorting it here, inside the
  // parallel phase, restores the canonical key order per lane. Events
  // the handlers add for this instant join through the `ready` heap.
  std::sort(L.batch.begin(), L.batch.end(),
            [](const event& a, const event& b) { return a.key < b.key; });
  std::uint64_t n = 0;
  std::size_t next = 0;
  for (;;) {
    action fn;
    if (next < L.batch.size() && (L.ready.empty() || L.batch[next].key < L.ready.top().key)) {
      fn = std::move(L.batch[next++].fn);
    } else if (!L.ready.empty()) {
      fn = std::move(const_cast<event&>(L.ready.top()).fn);
      L.ready.pop();
    } else {
      break;
    }
    fn();
    ++n;
  }
  L.batch.clear();
  t_active_sim = nullptr;
  L.executed = n;
  region_events_[r] += n;
}

time_point partitioned_simulator::next_instant() const {
  time_point t = std::numeric_limits<time_point>::infinity();
  if (!global_.empty()) t = global_.top().key.t;
  if (!buckets_.empty()) t = std::min(t, buckets_.begin()->first);
  return t;
}

void partitioned_simulator::step_instant() {
  const time_point t0 = next_instant();
  now_ = t0;
  ++stats_.instants;

  // 1. Serial class-0 prefix: global state (positions, liveness,
  // region membership) settles before any handler runs.
  while (!global_.empty() && global_.top().key.t <= t0) {
    event ev = std::move(const_cast<event&>(global_.top()));
    global_.pop();
    ++processed_;
    ++stats_.serial_events;
    ev.fn();
  }

  // 2. Hand the instant's class-1/2 bucket to lanes by the current
  // region map (a node that just migrated takes its timers with it).
  std::size_t batch = 0;
  active_.clear();
  if (!buckets_.empty() && buckets_.begin()->first <= t0) {
    for (chunk& c : buckets_.begin()->second) {
      batch += c.size();
      for (event& ev : c) {
        const std::uint32_t r = region_of_[ev.key.a];
        if (lanes_[r].batch.empty()) active_.push_back(r);
        lanes_[r].batch.push_back(std::move(ev));
      }
      c.clear();
      free_chunks_.push_back(std::move(c));
    }
    buckets_.erase(buckets_.begin());
  }

  if (batch > 0) {
    // 3. Parallel phase. Tiny instants drain inline: the order is the
    // same either way (lanes are independent), only the wall clock
    // differs.
    const bool inline_run = pool_ == nullptr || pool_->size() <= 1 || active_.size() <= 1 ||
                            batch <= serial_batch_limit_;
    in_phase_ = true;
    if (inline_run) {
      for (const std::uint32_t r : active_) drain_lane(r);
    } else {
      ++stats_.parallel_phases;
      pool_->parallel_for(active_.size(),
                          [this](std::size_t i) { drain_lane(active_[i]); });
    }
    in_phase_ = false;

    // 4. Barrier: append outboxes to their instants' buckets (keys
    // are unique and lanes sort their batches, so append order is
    // irrelevant) and let the engine flush its deferred per-region
    // state.
    for (const std::uint32_t r : active_) {
      lane& L = lanes_[r];
      bucket* last = nullptr;
      time_point last_t = 0.0;
      for (event& ev : L.outbox) {
        if (last == nullptr || ev.key.t != last_t) {
          last = &buckets_[ev.key.t];
          last_t = ev.key.t;
        }
        append(*last, std::move(ev));
      }
      L.outbox.clear();
      processed_ += L.executed;
      stats_.parallel_events += L.executed;
      L.executed = 0;
    }
    if (barrier_hook_) barrier_hook_();
  }

  // 5. Settled-instant hook (connectivity evaluation).
  if (hook_requested_.exchange(false, std::memory_order_relaxed) && instant_hook_) {
    instant_hook_();
  }
  stats_.violations = violations_.load(std::memory_order_relaxed);
}

std::size_t partitioned_simulator::run_until(time_point t) {
  const std::size_t before = processed_;
  while (!idle() && next_instant() <= t) step_instant();
  if (now_ < t) now_ = t;
  return processed_ - before;
}

}  // namespace cbtc::sim
