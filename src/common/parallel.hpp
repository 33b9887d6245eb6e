#pragma once

/// \file parallel.hpp
/// \brief Persistent thread pool for the solver's data-parallel hot loops.
///
/// The pool is created once and reused across calls: dispatching a loop is
/// a mutex/condvar handshake, not a round of thread spawns, and the body is
/// passed through a templated trampoline so no `std::function` allocation
/// or indirect call happens per iteration.  Three properties the solver
/// core relies on:
///
/// * **Determinism.**  Iterations write into caller-owned slots indexed by
///   `i`; the pool never reorders or drops indices, so any reduction the
///   caller performs over the slots in index order is bit-identical
///   regardless of the worker count (see `core/separation.cpp` and
///   `core/branch_bound.cpp`, which exploit exactly this).
/// * **Nested calls serialize.**  A `for_each` issued from inside a pool
///   worker (directly or through any library call) runs inline on that
///   worker, so nesting can neither deadlock the pool nor oversubscribe
///   the machine.
/// * **Deterministic failure.**  Exceptions thrown by the body are
///   captured per iteration; after all workers quiesce the exception with
///   the smallest iteration index among those observed is rethrown on the
///   calling thread (with one worker this is exactly the first failure, as
///   in a serial loop).
///
/// The body may take either `(int i)` or `(int i, unsigned worker)`; the
/// worker index is in `[0, thread_count())` and is stable for the duration
/// of one `for_each`, which makes per-worker scratch buffers trivial:
///
///     std::vector<Scratch> scratch(pool.thread_count());
///     pool.for_each(count, [&](int i, unsigned w) { use(scratch[w], i); });
///
/// `default_pool()` is the process-wide instance used by the solver core;
/// `set_default_thread_count()` (driven by the tools' `--threads` flag)
/// resizes it.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace mrlc {

/// \brief Reusable worker-thread pool with templated (allocation-free)
/// loop bodies.  See the file comment for the contract.
class ThreadPool {
 public:
  /// \brief Creates a pool of `threads` workers (0 = hardware concurrency).
  /// The calling thread of each `for_each` participates as worker 0, so a
  /// pool of `threads` keeps `threads - 1` helper threads parked.
  explicit ThreadPool(unsigned threads = 0) { start(resolve(threads)); }

  ~ThreadPool() { stop(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \return the worker count (caller + helpers) loops may fan out over.
  unsigned thread_count() const noexcept { return workers_; }

  /// \brief Rebuilds the pool with a new worker count (0 = hardware
  /// concurrency).  Must not be called from inside a `for_each` body.
  void resize(unsigned threads) {
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    const unsigned target = resolve(threads);
    if (target == workers_) return;
    stop();
    start(target);
  }

  /// \brief Invokes `body(i)` (or `body(i, worker)`) for every i in
  /// [0, count), fanning out over at most `max_workers` workers (0 = all).
  /// Blocks until every iteration completed; rethrows the smallest-index
  /// captured exception.  Safe to call concurrently from several threads
  /// (calls serialize) and reentrantly from a body (runs inline).
  template <typename Body>
  void for_each(int count, Body&& body, unsigned max_workers = 0) {
    MRLC_REQUIRE(count >= 0, "iteration count must be non-negative");
    if (count == 0) return;
    unsigned effective = workers_;
    if (max_workers != 0) effective = std::min(effective, max_workers);
    effective = std::min(effective, static_cast<unsigned>(count));
    if (effective <= 1 || in_pool_work()) {
      run_serial(body, count);
      return;
    }

    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    job_.kernel = &kernel_trampoline<std::remove_reference_t<Body>>;
    job_.ctx = static_cast<void*>(&body);
    job_.count = count;
    job_.chunk = std::max(1, count / (static_cast<int>(effective) * 4));
    job_.cursor.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    failure_index_ = std::numeric_limits<int>::max();
    failure_ = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_.workers = effective;
      pending_ = effective - 1;  // helpers with index in [1, effective)
      ++epoch_;
    }
    work_ready_.notify_all();

    run_worker(0);  // the caller is worker 0

    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_done_.wait(lock, [&] { return pending_ == 0; });
    }
    if (failure_ != nullptr) {
      std::exception_ptr failure = failure_;
      failure_ = nullptr;
      std::rethrow_exception(failure);
    }
  }

  /// \return true on a thread currently executing pool work (used to run
  /// nested calls inline; exposed for tests).
  static bool in_pool_work() noexcept { return in_pool_work_flag(); }

 private:
  /// One dispatched loop; `cursor` hands out contiguous index blocks.
  struct Job {
    void (*kernel)(void* ctx, ThreadPool& pool, int begin, int end,
                   unsigned worker) = nullptr;
    void* ctx = nullptr;
    std::atomic<int> cursor{0};
    int count = 0;
    int chunk = 1;
    unsigned workers = 0;
  };

  static bool& in_pool_work_flag() noexcept {
    thread_local bool flag = false;
    return flag;
  }

  static unsigned resolve(unsigned threads) {
    if (threads == 0) threads = std::thread::hardware_concurrency();
    return threads == 0 ? 1 : threads;
  }

  /// Calls the body with or without the worker index, whichever it takes.
  template <typename Body>
  static void invoke(Body& body, int i, unsigned worker) {
    if constexpr (std::is_invocable_v<Body&, int, unsigned>) {
      body(i, worker);
    } else {
      body(i);
    }
  }

  template <typename Body>
  void run_serial(Body& body, int count) {
    const bool was_inside = in_pool_work_flag();
    in_pool_work_flag() = true;
    try {
      for (int i = 0; i < count; ++i) invoke(body, i, 0);
    } catch (...) {
      in_pool_work_flag() = was_inside;
      throw;
    }
    in_pool_work_flag() = was_inside;
  }

  /// The only per-body generated code: iterates one claimed block, catching
  /// per iteration so the failing index is known exactly.
  template <typename Body>
  static void kernel_trampoline(void* ctx, ThreadPool& pool, int begin, int end,
                                unsigned worker) {
    Body& body = *static_cast<Body*>(ctx);
    for (int i = begin; i < end; ++i) {
      if (pool.failed_.load(std::memory_order_relaxed)) return;
      try {
        invoke(body, i, worker);
      } catch (...) {
        pool.record_failure(i, std::current_exception());
        return;
      }
    }
  }

  void record_failure(int index, std::exception_ptr failure) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (index < failure_index_) {
      failure_index_ = index;
      failure_ = std::move(failure);
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  /// Claims and runs index blocks until the job's cursor is exhausted.
  void run_worker(unsigned worker) {
    in_pool_work_flag() = true;
    while (!failed_.load(std::memory_order_relaxed)) {
      const int begin = job_.cursor.fetch_add(job_.chunk, std::memory_order_relaxed);
      if (begin >= job_.count) break;
      const int end = std::min(job_.count, begin + job_.chunk);
      job_.kernel(job_.ctx, *this, begin, end, worker);
    }
    in_pool_work_flag() = false;
  }

  void helper_loop(unsigned worker) {
    std::uint64_t seen = 0;
    for (;;) {
      unsigned job_workers = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
        if (shutdown_) return;
        seen = epoch_;
        job_workers = job_.workers;
      }
      if (worker >= job_workers) continue;  // not needed for this loop
      run_worker(worker);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
      }
      work_done_.notify_all();
    }
  }

  void start(unsigned workers) {
    workers_ = workers;
    shutdown_ = false;
    epoch_ = 0;
    helpers_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w) {
      helpers_.emplace_back([this, w] { helper_loop(w); });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
    helpers_.clear();
  }

  std::mutex dispatch_mutex_;  ///< serializes concurrent for_each callers
  std::mutex mutex_;           ///< guards epoch_/pending_/shutdown_
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<std::thread> helpers_;
  unsigned workers_ = 1;
  std::uint64_t epoch_ = 0;
  unsigned pending_ = 0;
  bool shutdown_ = false;
  Job job_;

  std::mutex failure_mutex_;
  std::atomic<bool> failed_{false};
  int failure_index_ = std::numeric_limits<int>::max();
  std::exception_ptr failure_;
};

/// \brief The process-wide pool used by the solver core (separation sweep,
/// branch-and-bound waves) and the bench drivers.  Created on first use
/// with `default_thread_count()` workers.
ThreadPool& default_pool();

/// \brief Resizes the default pool (0 = hardware concurrency).  Wired to
/// the tools' `--threads` flag; call before solving, not from a body.
void set_default_thread_count(unsigned threads);

/// \return the default pool's current worker count.
unsigned default_thread_count();

}  // namespace mrlc
