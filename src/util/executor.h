// Process-wide task executor shared by every parallel layer.
//
// Before this existed, each layer owned its threads: the batch runner
// spawned `--threads` workers per sweep and every `thread_pool`
// spawned `intra_threads - 1` workers per engine run, so
// `run_batch --threads 8 --intra-threads 8` could stand up 8 x 8
// threads fighting over the same cores. Now there is exactly one pool
// of workers per process — the `executor` singleton — and both layers
// submit chunked tasks to it. `util::thread_pool` (parallel.h) is a
// thin per-run view: it carries a width (how many threads may work a
// task at once) but owns no threads.
//
// Scheduling is help-first fork-join with work-stealing nesting:
//
//   * The thread that submits a task participates: it claims and runs
//     chunks of its own task first.
//   * When its own chunks are all claimed but stragglers are still
//     running, it does not block — it steals chunks from *other*
//     pending tasks (typically: a batch worker finishing a seed block
//     early helps another instance's intra-parallel loop). Only when
//     no claimable work exists anywhere does it sleep.
//   * A worker running a chunk that itself submits a task (an engine
//     run inside a batch doing an intra-parallel loop) recursively
//     becomes a submitter — nesting composes instead of spawning.
//
// Workers are spawned on demand up to the helpers the running
// top-level tasks ask for together: the sum of `width - 1` over every
// task submitted from outside any chunk of a fanned task (capped at
// max_workers). Two threads that each submit a width-2 batch at once
// (two in-process scenario servers) get a helper each instead of
// sharing one. A nested task — submitted from inside a chunk — adds
// nothing: the threads already running its parent's chunks work it,
// so a width-4 batch of width-4 instances still holds at most 3
// workers. An explicit `--threads 8` on a 2-core box still gets 8-way
// task structure without a per-run spawn, and repeated runs reuse the
// same sleeping workers (the set never shrinks).
//
// Determinism is unaffected by any of this: callers only ever submit
// loops whose chunks write disjoint slots or reduce over fixed-size
// blocks merged in block order (see parallel.h), so which thread ran a
// chunk is unobservable in the results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cbtc::util {

class executor {
 public:
  /// Hard cap on spawned workers (an explicit-width request beyond
  /// this still completes, just with fewer helpers).
  static constexpr unsigned max_workers = 256;

  /// The process-wide instance. Created lazily; workers are joined at
  /// process exit.
  [[nodiscard]] static executor& instance();

  /// One chunked parallel loop: body(lo, hi) over [0, n) in chunks of
  /// `chunk` indices. Stack-allocated by the submitting caller; dead
  /// when run() returns.
  class task {
   public:
    task(std::size_t n, std::size_t chunk,
         const std::function<void(std::size_t, std::size_t)>* body, unsigned width)
        : n_(n),
          chunk_(chunk),
          num_chunks_((n + chunk - 1) / chunk),
          unfinished_(num_chunks_),
          body_(body),
          width_(width) {}

    task(const task&) = delete;
    task& operator=(const task&) = delete;

   private:
    friend class executor;

    /// Worth sharing with helpers; otherwise the owner runs it inline.
    [[nodiscard]] bool fanned() const { return width_ > 1 && num_chunks_ > 1; }

    std::size_t n_;
    std::size_t chunk_;
    std::size_t num_chunks_;
    std::atomic<std::size_t> next_{0};        // next unclaimed chunk
    std::atomic<std::size_t> unfinished_;     // chunks not yet completed
    const std::function<void(std::size_t, std::size_t)>* body_;
    unsigned width_;    // max threads on this task (incl. the owner)
    unsigned helpers_{0};  // attached non-owner threads (guarded by executor mutex)
    std::exception_ptr error_;  // first exception (guarded by error_mutex_)
    std::mutex error_mutex_;
    task* next_task_{nullptr};  // intrusive list link (guarded by executor mutex)
    task* prev_task_{nullptr};
  };

  /// Runs `t` to completion on the calling thread plus up to
  /// `t.width_ - 1` executor workers, then rethrows the first
  /// exception any chunk threw. Reentrant: chunks may call run() for
  /// nested tasks.
  void run(task& t);

  /// Workers currently spawned (grows on demand; for tests/telemetry).
  [[nodiscard]] unsigned workers() const;

 private:
  executor() = default;
  ~executor();

  /// Claims and runs chunks of `t` until none are left; routes
  /// exceptions into `t`. Returns after the last claimable chunk.
  void drain(task& t);
  /// Runs one chunk [lo, hi); called with the claim already made.
  void run_chunk(task& t, std::size_t c);
  /// A task with an unclaimed chunk and spare width, or nullptr.
  /// Caller must hold mutex_. `skip` is excluded (the caller's own
  /// task, already drained).
  [[nodiscard]] task* claimable(const task* skip);
  /// Grows the worker set toward `helpers` workers (under mutex_).
  void ensure_workers(std::size_t helpers);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // workers: work available; owners: task done
  task* head_{nullptr};         // active-task list (round-robin scan)
  std::size_t demand_{0};       // sum of width - 1 over listed top-level tasks
  std::vector<std::thread> workers_;
  bool stop_{false};
};

}  // namespace cbtc::util
