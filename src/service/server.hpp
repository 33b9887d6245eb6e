#pragma once

/// \file server.hpp
/// \brief The solver service core: bounded admission, batched dispatch on
/// the persistent thread pool, typed replies, warm caching, and drain.
///
/// `SolverService` is transport-agnostic — `tools/mrlc_serve.cpp` feeds it
/// framed payloads from a Unix socket or stdin and ships the replies back;
/// tests drive it in-process.  The lifecycle of one request:
///
///   submit ──▶ [admission]  full queue → `rejected_overload` (shed)
///                           draining   → `rejected_draining`
///              [queue]      bounded FIFO, depth in `service.queue_depth`
///   dispatcher pops up to `batch_size` requests (admission order) per
///   batch and runs a three-stage pipeline:
///              [serial prep]      hash topology, result-cache lookup
///                                 (hit → reply, no solve), pool lease,
///                                 fault-injection decisions
///              [parallel solve]   `ThreadPool::for_each` over the batch:
///                                 parse, validate, `core::solve`
///                                 under the per-request `Budget`
///              [serial finalize]  admission order: poison audit, result
///                                 store, metrics, replies
///
/// **Determinism.**  Every cache mutation, fault-arrival decision, and
/// counter bump happens at the serial checkpoints in admission order, and
/// each solve is independently deterministic, so a fixed request sequence
/// with a pinned `batch_size` produces bit-identical trees and counters at
/// any worker thread count.  (Wall-clock metrics are the exception and are
/// gated behind `record_timings`.)
///
/// **Robustness.**  Malformed payloads become `invalid_request` replies;
/// unexpected exceptions inside a worker are caught by the dispatch
/// watchdog and become `internal_error` replies; an injected
/// `service.worker_crash` cancels the victim's budget cooperatively and
/// yields a typed `cancelled` reply — in every case the daemon itself
/// keeps serving.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/wire.hpp"

namespace mrlc::service {

struct ServiceOptions {
  /// Bounded admission queue; a submit against a full queue is shed with
  /// `rejected_overload` (never blocks the transport thread).
  std::size_t queue_capacity = 64;
  /// Requests dispatched per batch.  0 = the worker pool width.  Benchmarks
  /// and determinism tests pin this explicitly so batch composition — and
  /// with it cache/fault arrival order — is independent of `--threads`.
  int batch_size = 0;
  /// Warm-cache topology capacity (0 disables caching entirely).
  std::size_t cache_capacity = 16;
  /// Cut-pool bound per cached topology (`SubtourCutPool::set_capacity`).
  std::size_t cache_pool_sets = 256;
  /// Applied to requests that carry no deadline of their own; < 0 = none.
  std::int64_t default_deadline_ms = -1;
  /// Record wall-clock queue/solve times (reply fields + histograms).
  /// Off = those fields are hard zero and replies are byte-deterministic.
  bool record_timings = true;
  /// Start the dispatcher from the constructor.  Tests and benchmarks use
  /// `false` to enqueue a full workload first (deterministic shed/batch
  /// pattern), then call `start()`.
  bool auto_start = true;
};

class SolverService {
 public:
  /// Reply sink; invoked exactly once per submitted request, either inline
  /// from `submit` (shed/invalid) or from the dispatcher thread.  Must not
  /// call back into the service.
  using ReplyFn = std::function<void(const WireResponse&)>;

  explicit SolverService(ServiceOptions options = {});
  /// Drains (finishing queued work) and joins the dispatcher.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// \brief Admits a decoded request (thread-safe).  Sheds with a typed
  /// reply when the queue is full or the service is draining.
  void submit(WireRequest request, ReplyFn reply);

  /// \brief Admits a raw (unframed) payload; decode failures become
  /// `invalid_request` replies rather than exceptions.
  void submit_payload(const std::string& payload, ReplyFn reply);

  /// Starts the dispatcher (no-op when already started).
  void start();

  /// \brief Stops admissions, finishes every queued and in-flight request,
  /// flushes their replies, and joins the dispatcher.  Idempotent.
  void drain();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Requests currently queued (diagnostics; racy by nature).
  std::size_t queue_depth() const;

  /// Warm-cache counters (serial-checkpoint deterministic).
  const CacheStats& cache_stats() const noexcept { return cache_.stats(); }

 private:
  /// One admitted request waiting in the queue.
  struct Pending {
    WireRequest request;
    ReplyFn reply;
    std::chrono::steady_clock::time_point submitted;
  };
  struct WorkItem;  ///< one batch slot: request, budget, flags, outcome

  void dispatcher_loop();
  void process_batch(std::vector<Pending>& batch);
  /// Builds the typed reply for a solved/failed work item (no cache I/O).
  WireResponse make_reply(const WorkItem& item) const;

  ServiceOptions options_;
  WarmCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Pending> queue_;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  std::thread dispatcher_;
};

}  // namespace mrlc::service
