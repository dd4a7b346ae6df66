#include "util/parallel.h"

#include <algorithm>
#include <thread>

#include "util/executor.h"

namespace cbtc::util {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return std::max(1u, requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_pool& serial_pool() {
  static thread_pool pool(1);
  return pool;
}

void thread_pool::parallel_for_chunks(std::size_t n, std::size_t chunk,
                                      const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;

  if (width_ == 1 || num_chunks == 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t lo = c * chunk;
      body(lo, std::min(n, lo + chunk));
    }
    return;
  }

  executor::task t(n, chunk, &body, width_);
  executor::instance().run(t);
}

void thread_pool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  // Coalesce indices so tiny bodies do not pay one std::function call
  // and one atomic claim each; per-slot writes keep determinism
  // regardless of the chunking.
  const std::size_t chunk = std::clamp<std::size_t>(n / (std::size_t{size()} * 8), 1, 256);
  parallel_for_chunks(n, chunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace cbtc::util
