// Thread-pool and parallel_map contract tests: deterministic result
// ordering, exception propagation, nested submission, and the serial
// (jobs == 1) degenerate mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/parallel.hpp"

namespace smtu {
namespace {

TEST(ThreadPool, ResolveJobsDefaultsToHardware) {
  const u32 hardware = resolve_jobs(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  // Explicit requests are honoured up to the hardware thread count and
  // clamped (with a one-time stderr note) beyond it.
  EXPECT_EQ(resolve_jobs(7), std::min(7u, hardware));
  EXPECT_EQ(resolve_jobs(hardware), hardware);
  EXPECT_EQ(resolve_jobs(hardware + 1), hardware);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  auto future = pool.submit([] { return 42; });
  // Inline execution: the future is already satisfied when submit returns.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitReturnsResultsFromWorkers) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<usize>(i)].get(), i * i);
  }
}

TEST(ParallelMap, PreservesItemOrder) {
  for (const u32 jobs : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(jobs);
    std::vector<int> items(257);
    std::iota(items.begin(), items.end(), 0);
    const auto results = parallel_map(pool, items, [](const int& x) { return 3 * x + 1; });
    ASSERT_EQ(results.size(), items.size()) << "jobs=" << jobs;
    for (usize i = 0; i < items.size(); ++i) {
      EXPECT_EQ(results[i], 3 * items[i] + 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelMap, CostDispatchesLargestFirstAndKeepsItemOrder) {
  // The serial pool runs tasks at submission, exposing the dispatch order.
  ThreadPool pool(1);
  const std::vector<int> items = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<usize> ran;
  const auto results = parallel_map(
      pool, items,
      [&](const int& x) {
        ran.push_back(static_cast<usize>(&x - items.data()));
        return 10 * x;
      },
      [](const int& x) { return x; });
  // Descending cost; the two 1s keep their item order.
  EXPECT_EQ(ran, (std::vector<usize>{5, 7, 4, 2, 0, 6, 1, 3}));
  ASSERT_EQ(results.size(), items.size());
  for (usize i = 0; i < items.size(); ++i) EXPECT_EQ(results[i], 10 * items[i]);
}

TEST(ParallelMap, VoidTasksRunEveryItem) {
  ThreadPool pool(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> out(items.size(), -1);
  parallel_map(
      pool, items, [&](const int& x) { out[static_cast<usize>(x)] = 2 * x; },
      [](const int& x) { return x % 7; });
  for (usize i = 0; i < items.size(); ++i) EXPECT_EQ(out[i], 2 * items[i]);
}

TEST(ParallelMap, PropagatesFirstExceptionAfterAllTasksFinish) {
  ThreadPool pool(4);
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  std::atomic<int> completed{0};
  try {
    parallel_map(pool, items, [&](const int& x) {
      if (x == 17 || x == 40) throw std::runtime_error("boom at " + std::to_string(x));
      completed.fetch_add(1);
      return x;
    });
    FAIL() << "parallel_map swallowed the task exception";
  } catch (const std::runtime_error& error) {
    // First failure in item order, regardless of which thread hit it first.
    EXPECT_STREQ(error.what(), "boom at 17");
  }
  // Every non-throwing task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 62);
}

TEST(ParallelMap, SerialModePropagatesExceptionsToo) {
  ThreadPool pool(1);
  const std::vector<int> items = {1, 2, 3};
  EXPECT_THROW(parallel_map(pool, items,
                            [](const int& x) -> int {
                              if (x == 2) throw std::logic_error("serial boom");
                              return x;
                            }),
               std::logic_error);
}

TEST(ParallelMap, NestedSubmitDoesNotDeadlock) {
  // Tasks that fan out sub-tasks on the same pool must make progress even
  // when every worker is occupied by an outer task: waiting threads help
  // drain the queue.
  ThreadPool pool(4);
  std::vector<int> outer(8);
  std::iota(outer.begin(), outer.end(), 0);
  const auto sums = parallel_map(pool, outer, [&](const int& o) {
    std::vector<int> inner(8);
    std::iota(inner.begin(), inner.end(), 0);
    const auto parts = parallel_map(pool, inner, [&](const int& i) { return o * 8 + i; });
    return std::accumulate(parts.begin(), parts.end(), 0);
  });
  for (usize o = 0; o < sums.size(); ++o) {
    int expected = 0;
    for (int i = 0; i < 8; ++i) expected += static_cast<int>(o) * 8 + i;
    EXPECT_EQ(sums[o], expected) << o;
  }
}

TEST(ParallelMap, ManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::vector<u32> items(1000);
  std::iota(items.begin(), items.end(), 0u);
  std::atomic<u32> ran{0};
  const auto results = parallel_map(pool, items, [&](const u32& x) {
    ran.fetch_add(1);
    return x + 1;
  });
  EXPECT_EQ(ran.load(), 1000u);
  EXPECT_EQ(results.front(), 1u);
  EXPECT_EQ(results.back(), 1000u);
}

}  // namespace
}  // namespace smtu
