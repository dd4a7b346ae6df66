// The process-wide executor: nested pools must compose through task
// submission (no per-pool thread spawns, no width x width explosion),
// results must be independent of every width combination, and
// exceptions must cross nesting levels. thread_pool is the only
// public surface — these tests drive the executor through it exactly
// the way the engine layers do.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/executor.h"
#include "util/parallel.h"

namespace cbtc::util {
namespace {

/// The deterministic nested computation used throughout: outer index i
/// fans an inner reduce over [0, inner_n) on its own pool. Mirrors the
/// engine's structure (batch seed-blocks outside, metric reduce
/// inside).
double nested_sum(unsigned outer_threads, unsigned inner_threads, std::size_t outer_n,
                  std::size_t inner_n) {
  thread_pool outer(outer_threads);
  std::vector<double> per_outer(outer_n, 0.0);
  outer.parallel_for_chunks(outer_n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      thread_pool inner(inner_threads);
      per_outer[i] = inner.reduce<double>(
          inner_n, 0.0,
          [&](std::size_t a, std::size_t b) {
            double s = 0.0;
            for (std::size_t k = a; k < b; ++k) {
              s += 1.0 / static_cast<double>(i * inner_n + k + 1);
            }
            return s;
          },
          [](double& total, const double& part) { total += part; });
    }
  });
  double total = 0.0;
  for (const double v : per_outer) total += v;  // fixed order
  return total;
}

TEST(Executor, NestedPoolsProduceSerialResultForEveryWidthCombo) {
  const double reference = nested_sum(1, 1, 12, 5000);
  for (const unsigned outer : {1u, 2u, 4u, 8u}) {
    for (const unsigned inner : {1u, 3u, 8u}) {
      EXPECT_EQ(reference, nested_sum(outer, inner, 12, 5000))
          << "outer=" << outer << " inner=" << inner;
    }
  }
}

TEST(Executor, OversubscribedNestingCompletesAndSpawnsNoThreadExplosion) {
  // 8 x 8 on any machine: the old per-pool spawning would have stood
  // up 8 * 8 threads; the executor grows to at most the largest single
  // width ever requested (minus the caller), here 8 - 1 = 7 — plus
  // whatever earlier tests in this process already requested, which is
  // also <= 8 wide. Never anything like 64.
  const double reference = nested_sum(1, 1, 16, 2000);
  EXPECT_EQ(reference, nested_sum(8, 8, 16, 2000));
  EXPECT_LE(executor::instance().workers(), 7u);
}

TEST(Executor, ThreeLevelNestingWorks) {
  thread_pool outer(4);
  std::atomic<std::size_t> hits{0};
  outer.parallel_for_chunks(4, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      thread_pool mid(4);
      mid.parallel_for_chunks(4, 1, [&](std::size_t mlo, std::size_t mhi) {
        for (std::size_t j = mlo; j < mhi; ++j) {
          thread_pool leaf(2);
          leaf.parallel_for(64, [&](std::size_t) { hits.fetch_add(1); });
        }
      });
    }
  });
  EXPECT_EQ(hits.load(), 4u * 4u * 64u);
}

TEST(Executor, ExceptionInNestedBodyPropagatesToOuterCaller) {
  thread_pool outer(4);
  EXPECT_THROW(outer.parallel_for_chunks(8, 1,
                                         [&](std::size_t lo, std::size_t) {
                                           thread_pool inner(4);
                                           inner.parallel_for(100, [&](std::size_t k) {
                                             if (lo == 3 && k == 57) {
                                               throw std::runtime_error("nested boom");
                                             }
                                           });
                                         }),
               std::runtime_error);
  // Both levels stay usable afterwards.
  std::atomic<int> count{0};
  outer.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, ManyConcurrentPoolsShareTheSingleton) {
  // Two sibling pools inside one outer loop: chunks of both interleave
  // on the same workers; every index is still covered exactly once.
  thread_pool outer(2);
  std::vector<std::atomic<int>> hits(20000);
  outer.parallel_for_chunks(2, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t half = lo; half < hi; ++half) {
      thread_pool inner(4);
      const std::size_t base = half * 10000;
      inner.parallel_for(10000, [&](std::size_t i) { hits[base + i].fetch_add(1); });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Needs a fresh process (no worker spawned yet), so ctest runs it on
// its own via --gtest_filter (util_executor_concurrent_top_level); in a
// process where earlier tests already grew the worker set it skips.
TEST(Executor, ConcurrentTopLevelPoolsEachGetTheirWidth) {
  if (executor::instance().workers() != 0) {
    GTEST_SKIP() << "needs a fresh process: run with "
                    "--gtest_filter=Executor.ConcurrentTopLevelPoolsEachGetTheirWidth";
  }
  // Two threads each submit a width-2 loop at once — two in-process
  // shard servers, each running its batch. Together they ask for two
  // helpers, so four distinct threads must be inside chunks at the same
  // time. Every chunk waits for that (bounded: an under-provisioned
  // executor peaks at three and the test fails at the deadline rather
  // than hanging).
  constexpr std::size_t wanted = 4;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::mutex m;
  std::condition_variable cv;
  std::map<std::thread::id, int> inside;  // thread -> chunks it is running
  std::size_t peak = 0;
  const auto body = [&](std::size_t, std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    std::unique_lock<std::mutex> lock(m);
    ++inside[self];
    peak = std::max(peak, inside.size());
    cv.notify_all();
    cv.wait_until(lock, deadline, [&] { return peak >= wanted; });
    if (--inside[self] == 0) inside.erase(self);
  };
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] { thread_pool(2).parallel_for_chunks(4, 1, body); });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_GE(peak, wanted);

  // A nested submission adds no helpers: a width-4 task whose chunks
  // each run a width-4 pool holds at most 4 - 1 workers, not 4 * 3.
  const double reference = nested_sum(1, 1, 8, 2000);
  EXPECT_EQ(reference, nested_sum(4, 4, 8, 2000));
  EXPECT_LE(executor::instance().workers(), 3u);
}

}  // namespace
}  // namespace cbtc::util
