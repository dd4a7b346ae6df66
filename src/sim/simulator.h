// Discrete-event simulator core.
//
// A minimal, deterministic event loop: events are key-ordered
// callbacks on a virtual clock (sim/scheduler.h). The paper's
// synchronous rounds (Section 2) are realized by deadlines on this
// loop; its asynchronous model (Section 4) by unbounded-but-finite
// random delays injected at the channel layer.
//
// Ties at equal times follow the canonical typed key (global < node
// timer < delivery, then ids / per-node counters; sim/scheduler.h).
// This is the one total order the partitioned engine reproduces
// region-by-region, so the static protocol runner, the dynamic
// engine's single-queue reference path and the partitioned engine all
// execute the same event order.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace cbtc::sim {

class simulator final : public scheduler {
 public:
  [[nodiscard]] time_point now() const override { return now_; }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  void schedule_at(time_point t, action fn) override;
  void schedule_node(time_point t, graph::node_id owner, action fn) override;
  void schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                         std::uint64_t tx_seq, std::uint32_t copy, action fn) override;

  /// Runs until the queue is empty or `max_events` have been processed.
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));

  /// Runs events with time <= `t`, then advances the clock to `t`.
  /// Returns the number of events processed.
  std::size_t run_until(time_point t) override;

  void set_instant_hook(action fn) override { instant_hook_ = std::move(fn); }
  void request_instant_hook() override { hook_requested_ = true; }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t events_processed() const override { return processed_; }

 private:
  struct event {
    event_key key;
    action fn;
  };
  struct later {
    bool operator()(const event& a, const event& b) const { return b.key < a.key; }
  };

  void push(event_key key, action fn);
  void pop_run_top();
  void fire_instant_hook_if_due();

  std::priority_queue<event, std::vector<event>, later> queue_;
  time_point now_{0.0};
  std::uint64_t global_seq_{0};
  std::vector<std::uint64_t> node_seq_;
  std::size_t processed_{0};
  bool hook_requested_{false};
  action instant_hook_;
};

}  // namespace cbtc::sim
