// Spatially partitioned parallel dynamic engine (conservative PDES).
//
// The field is cut into regions; every node belongs to one region
// (region_of), and every class-1/2 event belongs to its node. The
// engine is a conservative synchronizer specialized to this codebase's
// event structure: all delivery delays are at least the channel's base
// delay (the lookahead delta > 0), and every event time in a dynamic
// run lies on the lattice generated by timer periods and multiples of
// delta — so each conservative window [t, t + delta) contains exactly
// one event instant, and the engine processes the timeline instant by
// instant:
//
//   1. class-0 (global) events at t run serially, in key order, from
//      their own small heap — positions, liveness, and the
//      live-neighbor index mutate only here;
//   2. class-1/2 events wait in per-instant buckets keyed by their
//      exact time (appending is the whole cost of scheduling one). The
//      instant's bucket is handed to per-region lanes by the *current*
//      region_of (so a node that just migrated takes its pending
//      timers with it);
//   3. lanes drain concurrently on the shared executor. Each lane
//      first sorts its batch by event_key, then runs it merged with a
//      same-instant heap: handlers may self-schedule same-instant
//      events (retry staggers) — those land in the executing lane's
//      heap, which is provably the owner's lane — and future events
//      (timers, deliveries at t + delta or later), which go to a
//      per-lane outbox;
//   4. barrier: outboxes are appended to their instants' buckets
//      (order irrelevant — keys are unique and every lane sorts its
//      batch), then the barrier hook runs (the dynamic engine flushes
//      buffered topology-mirror deltas);
//   5. if any handler requested it, the instant hook runs (settled-
//      instant connectivity evaluation).
//
// Because each lane drains in key order and a node's events all land
// in one lane per instant, every node observes exactly the restriction
// of the one canonical total order (sim/scheduler.h) to its own events
// — reports are bitwise-identical to the canonical-tie serial
// simulator at any region count and any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/parallel.h"

namespace cbtc::sim {

/// Synchronization telemetry; the lookahead-safety test asserts
/// violations == 0 while parallel_events > 0.
struct partition_stats {
  std::uint64_t instants{0};          ///< distinct event instants processed
  std::uint64_t parallel_phases{0};   ///< instants fanned across the executor
  std::uint64_t parallel_events{0};   ///< class-1/2 events executed in lanes
  std::uint64_t serial_events{0};     ///< class-0 events executed at barriers
  std::uint64_t migrations{0};        ///< region boundary crossings
  std::uint64_t violations{0};        ///< events created inside a phase below now + lookahead
};

class partitioned_simulator final : public scheduler {
 public:
  struct config {
    std::uint32_t regions{1};
    double lookahead{0.0};           ///< minimum delivery delay; must be > 0
    util::thread_pool* pool{nullptr};  ///< lanes fan across this pool's width
    std::size_t serial_batch_limit{32};  ///< instants this small drain inline
  };

  partitioned_simulator(std::size_t num_nodes, const config& cfg);

  /// Region management — serial contexts (class-0 events / between
  /// run_until calls) only.
  void set_region(graph::node_id u, std::uint32_t region);
  [[nodiscard]] std::uint32_t region_of(graph::node_id u) const { return region_of_[u]; }
  [[nodiscard]] std::uint32_t regions() const { return static_cast<std::uint32_t>(lanes_.size()); }

  [[nodiscard]] time_point now() const override { return now_; }
  void schedule_at(time_point t, action fn) override;
  void schedule_node(time_point t, graph::node_id owner, action fn) override;
  void schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                         std::uint64_t tx_seq, std::uint32_t copy, action fn) override;
  std::size_t run_until(time_point t) override;

  void set_instant_hook(action fn) override { instant_hook_ = std::move(fn); }
  void request_instant_hook() override {
    hook_requested_.store(true, std::memory_order_relaxed);
  }

  /// Runs serially right after every parallel phase, before the
  /// instant hook; the dynamic engine applies deferred mirror deltas
  /// here. current_region() identifies the executing lane while a
  /// phase runs on this thread (valid inside event handlers only).
  void set_barrier_hook(action fn) { barrier_hook_ = std::move(fn); }
  [[nodiscard]] static bool in_event_phase();
  [[nodiscard]] static std::uint32_t current_region();

  [[nodiscard]] std::size_t events_processed() const override { return processed_; }
  [[nodiscard]] bool idle() const { return global_.empty() && buckets_.empty(); }
  [[nodiscard]] const partition_stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::uint64_t>& region_events() const { return region_events_; }

 private:
  struct event {
    event_key key;
    action fn;
  };
  struct later {
    bool operator()(const event& a, const event& b) const { return b.key < a.key; }
  };
  using event_queue = std::priority_queue<event, std::vector<event>, later>;

  struct alignas(64) lane {
    std::vector<event> batch;   // this instant's routed events, sorted in the phase
    event_queue ready;          // same-instant events created during the phase
    std::vector<event> outbox;  // future events created during the phase
    std::uint64_t executed{0};
  };

  /// An instant's class-1/2 events, stored as a list of chunks of at
  /// most chunk_events events. Chunks come from a shared free list, so
  /// storage is recycled across instants without any bucket holding
  /// more than it needs.
  using chunk = std::vector<event>;
  using bucket = std::vector<chunk>;
  static constexpr std::size_t chunk_events = 1024;

  void append(bucket& b, event&& ev);
  [[nodiscard]] time_point next_instant() const;
  void step_instant();
  void drain_lane(std::uint32_t r);

  event_queue global_;  // class-0 events; mutated only outside parallel phases
  std::map<time_point, bucket> buckets_;  // class-1/2 events by instant
  std::vector<chunk> free_chunks_;
  std::vector<lane> lanes_;
  std::vector<std::uint32_t> region_of_;
  std::vector<std::uint64_t> node_seq_;
  std::vector<std::uint64_t> region_events_;
  std::vector<std::uint32_t> active_;  // scratch: lanes with work this instant
  util::thread_pool* pool_;
  double lookahead_;
  std::size_t serial_batch_limit_;
  time_point now_{0.0};
  std::uint64_t global_seq_{0};
  std::size_t processed_{0};
  bool in_phase_{false};
  std::atomic<bool> hook_requested_{false};
  std::atomic<std::uint64_t> violations_{0};
  partition_stats stats_;
  action instant_hook_;
  action barrier_hook_;
};

}  // namespace cbtc::sim
