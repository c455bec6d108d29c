// Reusable thread pool + order-preserving parallel map for the benchmark
// harness.
//
// Design constraints (see HACKING.md, "Parallel benchmarking"):
//  * Determinism: parallel_map returns results in item order, so reductions
//    over them are independent of scheduling. Tasks must not share mutable
//    state — each suite matrix gets its own Machine/StmUnit/Rng.
//  * jobs == 1 degenerates to fully serial execution on the calling thread
//    (the `-j1` baseline the determinism tests compare against); submit()
//    then runs tasks inline and never spawns a thread.
//  * Nested parallelism is safe: a thread that waits on futures of this
//    pool helps drain the queue instead of deadlocking.
//  * Exceptions propagate: a throwing task poisons its future; parallel_map
//    rethrows the first failure (in item order) after every task finished.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/types.hpp"

namespace smtu {

// Resolves a --jobs/-j request: 0 means "all hardware threads" (at least 1).
u32 resolve_jobs(u32 requested);

class ThreadPool {
 public:
  // `jobs` is the total parallelism including the submitting thread, i.e.
  // the pool starts jobs - 1 workers; 0 resolves to the hardware thread
  // count. The submitting thread contributes whenever it waits.
  explicit ThreadPool(u32 jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  u32 jobs() const { return jobs_; }

  // Schedules `fn` and returns its future. With jobs == 1 the task runs
  // inline (exceptions still land in the future, not the caller).
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    std::packaged_task<R()> task(std::move(fn));
    std::future<R> future = task.get_future();
    const bool sampled = telemetry_on();
    if (workers_.empty()) {
      if (sampled) {
        const u64 begin_us = telemetry_now_us();
        task();
        record_inline_task(telemetry_now_us() - begin_us);
      } else {
        task();
      }
      return future;
    }
    auto shared = std::make_shared<std::packaged_task<R()>>(std::move(task));
    if (sampled) {
      const u64 enqueued_us = telemetry_now_us();
      enqueue([shared, enqueued_us] {
        const u64 begin_us = telemetry_now_us();
        (*shared)();
        record_task(begin_us - enqueued_us, telemetry_now_us() - begin_us);
      });
    } else {
      enqueue([shared] { (*shared)(); });
    }
    return future;
  }

  // Runs one queued task on the calling thread, if any; false when idle.
  bool run_one();

  // Blocks until `future` is ready, executing queued tasks meanwhile so
  // tasks that submit (and wait on) subtasks of the same pool cannot
  // deadlock.
  template <typename R>
  void wait_helping(std::future<R>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      // The bounded wait covers the race where a task is enqueued after
      // run_one saw an empty queue: we re-poll instead of sleeping forever.
      if (!run_one()) future.wait_for(1ms);
    }
  }

 private:
  using Job = std::function<void()>;

  // Telemetry shims, out-of-line so this header stays telemetry-free.
  // record_task feeds pool.tasks_total / pool.task_wait_us / pool.task_run_us;
  // record_inline_task additionally accumulates the serial pool's busy time
  // so the destructor can report pool.worker_util_pct even at jobs == 1
  // (worker threads report their own utilization from worker_loop).
  static bool telemetry_on();
  static u64 telemetry_now_us();
  static void record_task(u64 wait_us, u64 run_us);
  void record_inline_task(u64 run_us);

  void enqueue(Job job);
  void worker_loop();

  u32 jobs_ = 1;
  u64 born_us_ = 0;  // 0 unless telemetry was on at construction
  std::atomic<u64> inline_busy_us_{0};
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Job> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Applies `fn` to every element of `items` across the pool and returns the
// results in item order, making downstream reductions deterministic
// regardless of how tasks interleave. `fn` is invoked concurrently and must
// be safe to call from several threads at once; it may return void. If any
// invocation throws, the first exception (in item order) is rethrown after
// all tasks finished.
//
// With a `cost` (item -> number), tasks are submitted largest first, ties in
// item order, so the longest ones start early instead of setting the tail.
// Only the schedule changes: results still come back in item order.
template <typename T, typename F, typename Cost = std::nullptr_t>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, F fn, Cost cost = nullptr)
    -> std::conditional_t<std::is_void_v<std::invoke_result_t<F&, const T&>>, void,
                          std::vector<std::invoke_result_t<F&, const T&>>> {
  using R = std::invoke_result_t<F&, const T&>;
  std::vector<usize> order(items.size());
  for (usize i = 0; i < order.size(); ++i) order[i] = i;
  if constexpr (!std::is_null_pointer_v<Cost>) {
    std::stable_sort(order.begin(), order.end(),
                     [&](usize a, usize b) { return cost(items[a]) > cost(items[b]); });
  }
  std::vector<std::future<R>> futures(items.size());
  for (const usize i : order) {
    futures[i] = pool.submit([&fn, &item = items[i]] { return fn(item); });
  }
  for (auto& future : futures) pool.wait_helping(future);
  std::exception_ptr first_error;
  const auto collect = [&](auto&& get) {
    for (auto& future : futures) {
      try {
        get(future);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  };
  if constexpr (std::is_void_v<R>) {
    collect([](std::future<R>& future) { future.get(); });
  } else {
    std::vector<R> results;
    results.reserve(items.size());
    collect([&](std::future<R>& future) { results.push_back(future.get()); });
    return results;
  }
}

}  // namespace smtu
