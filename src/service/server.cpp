#include "service/server.hpp"

#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "common/budget.hpp"
#include "common/check.hpp"
#include "common/faultpoint.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/solve.hpp"
#include "wsn/io.hpp"

namespace mrlc::service {

namespace {

struct ServiceCounters {
  metrics::Counter& requests = metrics::counter("service.requests");
  metrics::Counter& accepted = metrics::counter("service.accepted");
  metrics::Counter& shed_overload = metrics::counter("service.shed_overload");
  metrics::Counter& rejected_draining =
      metrics::counter("service.rejected_draining");
  metrics::Counter& invalid_requests =
      metrics::counter("service.invalid_requests");
  metrics::Counter& completed = metrics::counter("service.completed");
  metrics::Counter& degraded = metrics::counter("service.degraded");
  metrics::Counter& cancelled = metrics::counter("service.cancelled");
  metrics::Counter& infeasible = metrics::counter("service.infeasible");
  metrics::Counter& errors = metrics::counter("service.errors");
  metrics::Counter& batches = metrics::counter("service.batches");
  metrics::Counter& cache_hits = metrics::counter("service.cache_hits");
  metrics::Counter& cache_misses = metrics::counter("service.cache_misses");
  metrics::Counter& cache_evictions =
      metrics::counter("service.cache_evictions");
  metrics::Counter& cache_poisoned =
      metrics::counter("service.cache_poisoned");
  metrics::Gauge& queue_depth_gauge = metrics::gauge("service.queue_depth");
};

/// Static so key registration survives service teardown (stable addresses,
/// and `--metrics-json` flushes see every service.* key even at zero).
ServiceCounters& counters() {
  static ServiceCounters c;
  return c;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

/// One batch slot.  Built at serial prep, solved in the parallel stage,
/// audited and replied at serial finalize — fields note which stage owns
/// them.
struct SolverService::WorkItem {
  // -- prep (serial) --
  WireRequest request;
  ReplyFn reply;
  std::chrono::steady_clock::time_point submitted;
  core::VariantId variant = core::VariantId::kMrlc;  ///< parsed at prep
  std::uint64_t topo = 0;
  core::SubtourCutPool* pool = nullptr;  ///< leased; null = pool-free solve
  bool leased = false;
  bool inject_crash = false;   ///< service.worker_crash fired for this slot
  bool inject_slow = false;    ///< service.slow_request fired for this slot
  bool served_from_cache = false;
  bool skip_solve = false;     ///< cache hit or early invalid
  // -- solve (parallel; owned by exactly one worker) --
  Budget budget;
  std::optional<core::SolveResult> result;
  ResponseStatus status = ResponseStatus::kInternalError;
  std::string detail;
  std::string tree_text;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  // -- finalize (serial) --
  WireResponse reply_body;
};

SolverService::SolverService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_pool_sets) {
  counters();  // eager key registration
  if (options_.auto_start) start();
}

SolverService::~SolverService() { drain(); }

std::size_t SolverService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void SolverService::submit(WireRequest request, ReplyFn reply) {
  ServiceCounters& c = counters();
  c.requests.add();
  WireResponse shed;
  shed.id = request.id.empty() ? "-" : request.id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!draining_.load(std::memory_order_relaxed) &&
        queue_.size() < options_.queue_capacity) {
      queue_.push_back(Pending{std::move(request), std::move(reply),
                               std::chrono::steady_clock::now()});
      c.accepted.add();
      c.queue_depth_gauge.set(static_cast<double>(queue_.size()));
      wake_.notify_one();
      return;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      shed.status = ResponseStatus::kRejectedDraining;
      shed.detail = "service is draining; not accepting new requests";
      c.rejected_draining.add();
    } else {
      shed.status = ResponseStatus::kRejectedOverload;
      shed.detail = "admission queue full; retry with backoff";
      c.shed_overload.add();
    }
  }
  reply(shed);
}

void SolverService::submit_payload(const std::string& payload, ReplyFn reply) {
  WireRequest request;
  try {
    request = decode_request(payload);
  } catch (const WireError& e) {
    counters().requests.add();
    counters().invalid_requests.add();
    WireResponse bad;
    bad.id = "-";  // a payload too broken to decode has no usable id
    bad.status = ResponseStatus::kInvalidRequest;
    bad.detail = e.what();
    reply(bad);
    return;
  }
  submit(std::move(request), std::move(reply));
}

void SolverService::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void SolverService::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_.store(true, std::memory_order_relaxed);
    // Never started: queued requests (auto_start=false misuse) still get
    // drained below by running the dispatcher loop inline.
    if (!started_) {
      started_ = true;
      dispatcher_ = std::thread([this] { dispatcher_loop(); });
    }
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SolverService::dispatcher_loop() {
  const int pool_width = static_cast<int>(default_pool().thread_count());
  const int batch_size =
      options_.batch_size > 0 ? options_.batch_size : std::max(1, pool_width);
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // draining and nothing left
      while (!queue_.empty() &&
             batch.size() < static_cast<std::size_t>(batch_size)) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      counters().queue_depth_gauge.set(static_cast<double>(queue_.size()));
    }
    process_batch(batch);
  }
}

void SolverService::process_batch(std::vector<Pending>& batch) {
  ServiceCounters& c = counters();
  c.batches.add();
  const int n = static_cast<int>(batch.size());
  std::vector<std::unique_ptr<WorkItem>> items;
  items.reserve(static_cast<std::size_t>(n));

  // ---- serial prep (admission order): cache lookups, leases, fault
  // arrival decisions.  Everything that must be deterministic across
  // worker thread counts happens here or in finalize.
  const auto prep_time = std::chrono::steady_clock::now();
  for (Pending& pending : batch) {
    auto item = std::make_unique<WorkItem>();
    item->request = std::move(pending.request);
    item->reply = std::move(pending.reply);
    item->submitted = pending.submitted;
    if (options_.record_timings) {
      item->queue_ms = ms_between(item->submitted, prep_time);
    }
    const WireRequest& req = item->request;
    const std::optional<core::VariantId> variant =
        core::variant_from_string(req.variant);
    if (!variant.has_value()) {
      item->skip_solve = true;
      item->status = ResponseStatus::kInvalidRequest;
      item->detail = "unsupported problem variant '" + req.variant + "'";
      items.push_back(std::move(item));
      continue;
    }
    item->variant = *variant;
    item->topo = topology_hash(req.network_text);
    const std::string key =
        WarmCache::result_key(req.variant, req.lifetime, req.budget);
    if (const CachedResult* hit = cache_.find_result(item->topo, key)) {
      item->skip_solve = true;
      item->served_from_cache = true;
      item->status = ResponseStatus::kOk;
      item->detail = "served from result cache";
      item->tree_text = hit->tree_text;
      item->reply_body.cost = hit->cost;
      item->reply_body.reliability = hit->reliability;
      item->reply_body.lifetime = hit->lifetime;
      item->reply_body.gap = hit->gap;
      item->reply_body.has_solution = true;
      item->reply_body.budget_used = hit->budget_used;
      c.cache_hits.add();
      items.push_back(std::move(item));
      continue;
    }
    c.cache_misses.add();
    item->pool = cache_.lease(item->topo, req.variant);
    item->leased = item->pool != nullptr;
    if (req.budget >= 0) item->budget.set_work_limit(req.budget);
    const std::int64_t deadline = req.deadline_ms >= 0
                                      ? req.deadline_ms
                                      : options_.default_deadline_ms;
    if (deadline >= 0) item->budget.set_deadline_ms(deadline);
    // Fault arrivals are decided here (serial, admission order) so an
    // armed `:N` trigger names the same request at any thread count.
    item->inject_crash = fault::fire("service.worker_crash");
    item->inject_slow = fault::fire("service.slow_request");
    items.push_back(std::move(item));
  }

  // ---- parallel solve.  Each worker owns items[i] exclusively; the
  // watchdog try/catch turns any unexpected exception into a typed
  // internal_error reply instead of taking the daemon down.
  default_pool().for_each(n, [&](int i) {
    WorkItem& item = *items[static_cast<std::size_t>(i)];
    if (item.skip_solve) return;
    const auto solve_start = std::chrono::steady_clock::now();
    try {
      if (item.inject_slow) {
        // Injected latency: models a worker stuck on a pathological
        // instance long enough for the admission queue to back up.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        fault::note_recovered("service.slow_request");
      }
      if (item.inject_crash) {
        // Injected worker crash: the watchdog's recovery is cooperative
        // cancellation — the victim's budget is cancelled and the typed
        // `cancelled` reply carries whatever incumbent was seeded.
        item.budget.cancel();
        fault::note_recovered("service.worker_crash");
      }
      const wsn::Network net = wsn::network_from_string(item.request.network_text);
      core::SolveRequest request;
      request.variant = item.variant;
      request.bound = item.request.lifetime;
      request.ira.shared_pool = item.pool;
      request.ira.budget = &item.budget;
      core::SolveResult result = core::solve(net, request);
      switch (result.status) {
        case core::SolveStatus::kOptimal:
          item.status = ResponseStatus::kOk;
          break;
        case core::SolveStatus::kFeasibleBudgetExhausted:
          item.status = ResponseStatus::kBudgetExhausted;
          break;
        case core::SolveStatus::kCancelled:
          item.status = ResponseStatus::kCancelled;
          break;
        case core::SolveStatus::kInfeasible:
          item.status = ResponseStatus::kInfeasible;
          break;
        case core::SolveStatus::kNotConverged:
          // No wire status of its own: an internal error carrying the
          // typed message, and no tree.
          item.status = ResponseStatus::kInternalError;
          break;
      }
      item.detail = result.message;
      if (item.status != ResponseStatus::kInfeasible &&
          item.status != ResponseStatus::kInternalError) {
        item.tree_text = wsn::tree_to_string(result.tree);
      }
      item.result = std::move(result);
    } catch (const std::invalid_argument& e) {
      item.status = ResponseStatus::kInvalidRequest;
      item.detail = e.what();
    } catch (const std::exception& e) {
      item.status = ResponseStatus::kInternalError;
      item.detail = e.what();
    }
    if (options_.record_timings) {
      item.solve_ms =
          ms_between(solve_start, std::chrono::steady_clock::now());
    }
  });

  // ---- serial finalize (admission order): poison audit, result store,
  // metrics, replies.
  static metrics::Histogram& queue_us_hist =
      metrics::histogram("service.queue_us");
  static metrics::Histogram& solve_us_hist =
      metrics::histogram("service.solve_us");
  static metrics::Histogram& request_us_hist =
      metrics::histogram("service.request_us");
  const CacheStats before = cache_.stats();
  for (std::unique_ptr<WorkItem>& item_ptr : items) {
    WorkItem& item = *item_ptr;
    if (item.leased) {
      const bool numerically_suspect =
          item.result.has_value() && item.result->stats.cold_fallbacks > 0;
      const bool injected_poison = fault::fire("service.cache_poison");
      if (numerically_suspect || injected_poison) {
        cache_.quarantine(item.topo);
        if (injected_poison) fault::note_recovered("service.cache_poison");
      } else {
        cache_.release(item.topo, item.request.variant);
      }
    }
    if (!item.served_from_cache && item.status == ResponseStatus::kOk &&
        item.result.has_value()) {
      CachedResult cached;
      cached.tree_text = item.tree_text;
      cached.cost = item.result->cost;
      cached.reliability = item.result->reliability;
      cached.lifetime = item.result->lifetime;
      cached.gap = item.result->gap;
      cached.budget_used = item.budget.used();
      cache_.store_result(item.topo,
                          WarmCache::result_key(item.request.variant,
                                                item.request.lifetime,
                                                item.request.budget),
                          std::move(cached));
    }
    switch (item.status) {
      case ResponseStatus::kOk: c.completed.add(); break;
      case ResponseStatus::kBudgetExhausted: c.degraded.add(); break;
      case ResponseStatus::kCancelled: c.cancelled.add(); break;
      case ResponseStatus::kInfeasible: c.infeasible.add(); break;
      case ResponseStatus::kInvalidRequest: c.invalid_requests.add(); break;
      default: c.errors.add(); break;
    }
    if (options_.record_timings) {
      queue_us_hist.record(static_cast<long long>(item.queue_ms * 1000.0));
      solve_us_hist.record(static_cast<long long>(item.solve_ms * 1000.0));
      request_us_hist.record(
          static_cast<long long>((item.queue_ms + item.solve_ms) * 1000.0));
    }
    item.reply(make_reply(item));
  }
  const CacheStats after = cache_.stats();
  c.cache_evictions.add(after.evictions - before.evictions);
  c.cache_poisoned.add(after.poisoned - before.poisoned);
}

WireResponse SolverService::make_reply(const WorkItem& item) const {
  WireResponse out = item.reply_body;  // cache hits pre-filled the scalars
  out.id = item.request.id;
  out.status = item.status;
  out.detail = item.detail;
  out.tree_text = item.tree_text;
  out.cache = item.served_from_cache
                  ? "hit"
                  : (item.skip_solve ? "none" : "miss");
  out.queue_ms = item.queue_ms;
  out.solve_ms = item.solve_ms;
  if (item.result.has_value()) {
    out.has_solution = item.status != ResponseStatus::kInfeasible &&
                       item.status != ResponseStatus::kInvalidRequest &&
                       item.status != ResponseStatus::kInternalError;
    out.cost = item.result->cost;
    out.reliability = item.result->reliability;
    out.lifetime = item.result->lifetime;
    out.gap = item.result->gap;
    out.budget_used = item.budget.used();
  } else if (item.served_from_cache) {
    out.has_solution = true;
  }
  return out;
}

}  // namespace mrlc::service
