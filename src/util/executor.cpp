#include "util/executor.h"

#include <algorithm>

namespace cbtc::util {

namespace {

/// Chunks of fanned tasks the calling thread is inside (nested runs
/// stack). A task submitted at depth 0 is top-level: it adds its
/// helpers to the executor's demand. A task that runs inline on its
/// owner (width 1 or one chunk) leaves the depth alone: the tasks its
/// chunks submit are the caller's real parallelism.
thread_local unsigned chunk_depth = 0;

/// Raises chunk_depth for one chunk of a fanned task; the destructor
/// restores it even when the chunk throws.
class chunk_depth_guard {
 public:
  explicit chunk_depth_guard(bool raise) : step_(raise ? 1 : 0) { chunk_depth += step_; }
  ~chunk_depth_guard() { chunk_depth -= step_; }
  chunk_depth_guard(const chunk_depth_guard&) = delete;
  chunk_depth_guard& operator=(const chunk_depth_guard&) = delete;

 private:
  unsigned step_;
};

}  // namespace

executor& executor::instance() {
  static executor e;
  return e;
}

executor::~executor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

unsigned executor::workers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(workers_.size());
}

executor::task* executor::claimable(const task* skip) {
  for (task* t = head_; t != nullptr; t = t->next_task_) {
    if (t == skip) continue;
    if (t->next_.load(std::memory_order_relaxed) < t->num_chunks_ &&
        t->helpers_ + 1 < t->width_) {
      return t;
    }
  }
  return nullptr;
}

void executor::ensure_workers(std::size_t helpers) {
  const std::size_t wanted = std::min<std::size_t>(helpers, max_workers);
  while (workers_.size() < wanted) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void executor::run_chunk(task& t, std::size_t c) {
  const std::size_t lo = c * t.chunk_;
  const std::size_t hi = std::min(t.n_, lo + t.chunk_);
  std::size_t completing = 1;
  try {
    const chunk_depth_guard depth(t.fanned());
    (*t.body_)(lo, hi);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(t.error_mutex_);
      if (!t.error_) t.error_ = std::current_exception();
    }
    // Abandon the unclaimed remainder. Chunks claimed before the
    // exchange complete (and decrement) themselves; the never-claimed
    // tail [old, num_chunks) is completed here in one step.
    const std::size_t old = t.next_.exchange(t.num_chunks_, std::memory_order_relaxed);
    completing += t.num_chunks_ - std::min(old, t.num_chunks_);
  }
  if (t.unfinished_.fetch_sub(completing, std::memory_order_acq_rel) == completing) {
    // Last chunk of this task: wake its owner.
    const std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }
}

void executor::drain(task& t) {
  for (;;) {
    const std::size_t c = t.next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= t.num_chunks_) return;
    run_chunk(t, c);
  }
}

void executor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    task* t = claimable(nullptr);
    if (t == nullptr) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    ++t->helpers_;
    lock.unlock();
    drain(*t);
    lock.lock();
    --t->helpers_;
    // The owner may be waiting for the helper count to reach zero.
    if (t->unfinished_.load(std::memory_order_acquire) == 0) cv_.notify_all();
  }
}

void executor::run(task& t) {
  if (t.num_chunks_ == 0) return;
  const bool fanned = t.fanned();
  // Helpers this task adds to the demand: its own width - 1 when it is
  // top-level, none when it nests inside a chunk.
  const std::size_t demand = fanned && chunk_depth == 0 ? t.width_ - 1 : 0;
  if (fanned) {
    const std::lock_guard<std::mutex> lock(mutex_);
    demand_ += demand;
    ensure_workers(std::max<std::size_t>(t.width_ - 1, demand_));
    t.next_task_ = head_;
    t.prev_task_ = nullptr;
    if (head_ != nullptr) head_->prev_task_ = &t;
    head_ = &t;
    cv_.notify_all();
  }
  drain(t);  // the owner always participates
  if (fanned) {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for stragglers — but steal chunks from other pending tasks
    // instead of idling while any exist (work-stealing nesting).
    while (t.unfinished_.load(std::memory_order_acquire) != 0 || t.helpers_ != 0) {
      if (task* other = claimable(&t)) {
        ++other->helpers_;
        lock.unlock();
        drain(*other);
        lock.lock();
        --other->helpers_;
        if (other->unfinished_.load(std::memory_order_acquire) == 0) cv_.notify_all();
        continue;
      }
      cv_.wait(lock);
    }
    demand_ -= demand;
    if (t.prev_task_ != nullptr) {
      t.prev_task_->next_task_ = t.next_task_;
    } else {
      head_ = t.next_task_;
    }
    if (t.next_task_ != nullptr) t.next_task_->prev_task_ = t.prev_task_;
  }
  if (t.error_) {
    std::exception_ptr e;
    {
      const std::lock_guard<std::mutex> lock(t.error_mutex_);
      std::swap(e, t.error_);
    }
    std::rethrow_exception(e);
  }
}

}  // namespace cbtc::util
