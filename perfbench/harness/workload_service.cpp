/// \file workload_service.cpp
/// \brief `service_mix`: closed-loop callers driving an in-process
/// `service::SolverService` through the wire codec.
///
/// Each caller encodes a request, submits the payload, waits for the reply
/// (which the reply callback encodes, as a transport would), decodes it and
/// only then sends its next request.  Requests draw from a seeded pool of
/// G(16/32/48) topologies, 27 times larger than the result cache, in a
/// mix of exact repeats (result-cache hits), a recent topology at a new LC
/// (result miss, warm cut pool) and a topology drawn from the whole pool
/// (mostly cold).  Repeats are kept below half of the mix so the median
/// request is a solve, not a cache hit.
///
/// Batching in a closed loop depends on timing, and a warm cut pool may
/// settle on another optimal vertex, so replies get structural checks only.
/// Each reply is checked as soon as its timing stops and then dropped, so
/// peak RSS does not grow with the number of requests.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>

#include "baselines/mst_baseline.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "scenario/random_net.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "workloads.hpp"
#include "wsn/io.hpp"

namespace perfbench {

namespace {

using namespace mrlc;

constexpr int kCallers = 2;
constexpr unsigned kPoolWidth = 2;  // callers + pool = 4 threads
constexpr std::size_t kCacheCapacity = 16;
/// 27 times the cache: with 9 times, the median request time still spread
/// by 0.09 over 5 seeds, because solve cost varies widely between draws.
constexpr int kTopologies = 27 * static_cast<int>(kCacheCapacity);
constexpr double kRepeatShare = 0.3;
constexpr double kNewLifetimeShare = 0.35;  // the rest draws from the pool
constexpr std::size_t kRecent = 8;  ///< requests a caller may repeat
/// LC = factor x the topology's MST lifetime, which the MST meets; a fresh
/// factor is drawn from [kMinFactor, 1] for every non-repeat request, so
/// only exact repeats can hit the result cache.
constexpr double kMinFactor = 0.85;
constexpr int kWarmupRequests = 64;
constexpr int kTracedRequestsPerCaller = 300;
constexpr double kSliceSeconds = 1.0;

struct Topology {
  wsn::Network net{1};
  std::string text;  ///< mrlc-network-v1, what the request carries
  double mst_lifetime = 0.0;
};

std::vector<Topology> make_topologies(std::uint64_t seed, Tracer* tracer,
                                      double& generate_ms, double& mst_ms) {
  struct Size {
    int nodes;
    double p;
  };
  constexpr Size kSizes[] = {{16, 0.5}, {32, 0.3}, {48, 0.2}};
  Rng rng(seed);
  std::vector<Topology> out(kTopologies);
  for (int i = 0; i < kTopologies; ++i) {
    Topology& t = out[static_cast<std::size_t>(i)];
    const Size size = kSizes[i % 3];
    double start = now_s();
    {
      SpanScope span(tracer, "scenario.generate", i);
      scenario::RandomNetworkConfig config;
      config.node_count = size.nodes;
      config.link_probability = size.p;
      t.net = scenario::make_random_network(config, rng);
      t.text = wsn::network_to_string(t.net);
    }
    generate_ms += (now_s() - start) * 1e3;
    start = now_s();
    SpanScope span(tracer, "baselines.mst", i);
    t.mst_lifetime = baselines::mst_baseline(t.net).lifetime;
    mst_ms += (now_s() - start) * 1e3;
  }
  return out;
}

struct Pick {
  int topology = 0;
  double factor = 1.0;
};

/// One caller's seeded request stream.
class Mix {
 public:
  explicit Mix(Rng rng) : rng_(rng) {}
  Pick next() {
    const double u = rng_.uniform();
    Pick pick;
    if (!recent_.empty() && u < kRepeatShare + kNewLifetimeShare) {
      pick = recent_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(recent_.size()) - 1))];
      if (u >= kRepeatShare) pick.factor = rng_.uniform(kMinFactor, 1.0);
    } else {
      pick.topology = static_cast<int>(rng_.uniform_int(0, kTopologies - 1));
      pick.factor = rng_.uniform(kMinFactor, 1.0);
    }
    recent_.push_back(pick);
    if (recent_.size() > kRecent) recent_.pop_front();
    return pick;
  }

 private:
  Rng rng_;
  std::deque<Pick> recent_;
};

/// Where the reply callback hands the encoded reply to its waiting caller.
struct ReplySlot {
  std::mutex mutex;
  std::condition_variable ready;
  bool full = false;     ///< guarded by mutex
  std::string payload;   ///< guarded by mutex
};

/// One request as the caller saw it, checked as soon as its timing stopped.
struct Sample {
  double request_ms = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double queue_ms = 0.0;  ///< as the reply reports it
  double solve_ms = 0.0;  ///< as the reply reports it
  bool hit = false;
  std::string error;      ///< empty when the reply passed its checks
};

std::string check(const Topology& topo, const Pick& pick,
                  const service::WireResponse& resp) {
  if (resp.status != service::ResponseStatus::kOk) {
    return std::string("status ") + service::to_string(resp.status) + ": " +
           resp.detail;
  }
  if (!resp.has_solution) return "ok reply without a solution";
  const std::vector<int> parents = parents_from_tree_text(resp.tree_text);
  if (parents.empty()) return "malformed tree text";
  return check_tree(topo.net, parents, pick.factor * topo.mst_lifetime,
                    resp.cost);
}

/// Sends one request through the codec, waits for its decoded reply and
/// checks it.
Sample call(service::SolverService& svc, ReplySlot& slot,
            const std::vector<Topology>& topologies, Pick pick,
            const std::string& id, Tracer* tracer, long op) {
  const Topology& topo = topologies[static_cast<std::size_t>(pick.topology)];
  service::WireRequest request;
  request.id = id;
  request.lifetime = pick.factor * topo.mst_lifetime;
  request.network_text = topo.text;

  Sample sample;
  service::WireResponse response;
  const double start = now_s();
  try {
    SpanScope whole(tracer, "service.request", op);
    std::string payload;
    {
      SpanScope span(tracer, "wire.encode", op);
      payload = service::encode_request(request);
    }
    const double submitted = now_s();
    sample.encode_us = (submitted - start) * 1e6;
    std::string reply;
    {
      SpanScope wait(tracer, "service.wait", op);
      svc.submit_payload(payload, [&slot](const service::WireResponse& r) {
        std::string encoded = service::encode_response(r);
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.payload = std::move(encoded);
        slot.full = true;
        slot.ready.notify_one();
      });
      std::unique_lock<std::mutex> lock(slot.mutex);
      slot.ready.wait(lock, [&slot] { return slot.full; });
      slot.full = false;
      reply = std::move(slot.payload);
    }
    const double replied = now_s();
    {
      SpanScope span(tracer, "wire.decode", op);
      response = service::decode_response(reply);
    }
    const double end = now_s();
    sample.decode_us = (end - replied) * 1e6;
    sample.request_ms = (end - start) * 1e3;
  } catch (const std::exception& e) {
    sample.request_ms = (now_s() - start) * 1e3;
    sample.error = std::string("codec threw: ") + e.what();
    return sample;
  }
  sample.queue_ms = response.queue_ms;
  sample.solve_ms = response.solve_ms;
  sample.hit = response.cache == "hit";
  sample.error = check(topo, pick, response);
  return sample;
}

service::ServiceOptions service_options(bool record_timings) {
  service::ServiceOptions options;
  options.cache_capacity = kCacheCapacity;
  options.record_timings = record_timings;
  return options;
}

/// Runs kCallers closed-loop callers until each has sent `per_caller`
/// requests or `deadline_s` (steady clock) passes, whichever is first.
/// Each `slice` of a run draws its own request streams and operation ids.
std::vector<Sample> drive(service::SolverService& svc,
                          std::vector<ReplySlot>& slots,
                          const std::vector<Topology>& topologies,
                          std::uint64_t seed, int slice, int per_caller,
                          double deadline_s, Tracer* tracer) {
  std::vector<std::vector<Sample>> samples(kCallers);
  const auto caller = [&](int c) {
    const long stream = static_cast<long>(slice) * kCallers + c;
    Rng root(seed);
    Mix mix(root.fork(static_cast<std::uint64_t>(stream) + 1));
    std::vector<Sample>& mine = samples[static_cast<std::size_t>(c)];
    for (int k = 0; k < per_caller && now_s() < deadline_s; ++k) {
      const long op = stream * per_caller + k;
      mine.push_back(call(svc, slots[static_cast<std::size_t>(c)], topologies,
                          mix.next(), std::to_string(op), tracer, op));
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < kCallers; ++c) others.emplace_back(caller, c);
  caller(0);  // the main thread is caller 0
  for (std::thread& t : others) t.join();
  std::vector<Sample> all;
  for (std::vector<Sample>& r : samples) {
    all.insert(all.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
  }
  return all;
}

}  // namespace

Report run_service_mix(const RunOptions& options) {
  Report report;
  set_default_thread_count(kPoolWidth);
  metrics::set_enabled(false);
  report.context["pool_width"] = std::to_string(kPoolWidth);
  report.context["callers"] = std::to_string(kCallers);
  report.context["topologies"] = std::to_string(kTopologies);
  report.context["cache_capacity"] = std::to_string(kCacheCapacity);
  if (options.capture_golden) return report;  // structural checks only

  std::vector<ReplySlot> slots(kCallers);  // outlive every service below
  const std::uint64_t warmup_seed = Rng(options.seed).fork(100)();
  const std::uint64_t mix_seed = Rng(options.seed).fork(200)();

  if (options.tracer == nullptr) {
    const auto make = [&] {
      double generate_ms = 0.0;
      double mst_ms = 0.0;
      return make_topologies(options.seed, nullptr, generate_ms, mst_ms);
    };
    const std::vector<Topology> topologies = make();
    SetupClock setup;
    setup.sample(make);
    service::SolverService svc(service_options(false));
    // Warm-up from one caller fills the result cache and the cut pools.
    Mix warmup(Rng{warmup_seed});
    for (int k = 0; k < kWarmupRequests; ++k) {
      report.count(call(svc, slots[0], topologies, warmup.next(),
                        "w-" + std::to_string(k), nullptr, -1).error);
    }
    // The callers run in slices; set-ups are timed between slices, with
    // the callers stopped, and left out of the window.  Only the request
    // times outlive a slice.
    std::vector<double> request_ms;
    long long hits = 0;
    double window_s = 0.0;
    for (int slice = 0; window_s < options.seconds; ++slice) {
      const double start = now_s();
      const std::vector<Sample> part =
          drive(svc, slots, topologies, mix_seed, slice, 1 << 30,
                start + std::min(kSliceSeconds, options.seconds - window_s),
                nullptr);
      window_s += now_s() - start;
      for (const Sample& r : part) {
        request_ms.push_back(r.request_ms);
        hits += r.hit;
        report.count(r.error);
      }
      setup.sample(make);
    }
    svc.drain();

    const double n = static_cast<double>(request_ms.size());
    report_setup(report, setup);
    report.set("op_ms_p50", quantile(request_ms, 0.5), "ms");
    report.set("throughput_per_s", ratio(n, window_s), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    const auto [label, tail] = tail_percentile(request_ms);
    if (!label.empty()) report.context["request_ms_" + label] = json_number(tail);
    report.context["samples"] = std::to_string(request_ms.size());
    report.context["cache_hit_ratio"] = json_number(ratio(static_cast<double>(hits), n));
    return report;
  }

  // Traced run: the same fixed request sequence against a fresh service,
  // untraced and then traced.
  Tracer& tracer = *options.tracer;
  double generate_ms = 0.0;
  double mst_ms = 0.0;
  std::vector<Topology> topologies;
  {
    SpanScope setup(&tracer, "bench.setup");
    topologies = make_topologies(options.seed, &tracer, generate_ms, mst_ms);
  }
  report.set("scenario.generate_ms", generate_ms, "ms");
  report.set("baselines.mst_ms", mst_ms, "ms");

  const auto pass = [&](Tracer* pass_tracer) {
    service::SolverService svc(service_options(pass_tracer != nullptr));
    Mix warmup(Rng{warmup_seed});
    for (int k = 0; k < kWarmupRequests; ++k) {
      report.count(call(svc, slots[0], topologies, warmup.next(),
                        "w-" + std::to_string(k), nullptr, -1).error);
    }
    if (pass_tracer != nullptr) {
      metrics::reset();
      metrics::set_enabled(true);
    }
    const double start = now_s();
    SpanScope span(pass_tracer, "bench.pass");
    std::vector<Sample> samples =
        drive(svc, slots, topologies, mix_seed, 0, kTracedRequestsPerCaller,
              1e300, pass_tracer);
    const double elapsed_s = now_s() - start;
    svc.drain();
    metrics::set_enabled(false);
    for (const Sample& r : samples) report.count(r.error);
    return std::pair{std::move(samples), elapsed_s};
  };
  const double untraced_s = pass(nullptr).second;
  const auto [samples, traced_s] = pass(&tracer);

  // The service reports each request's queue wait and solve time; lay them
  // out under the request's wait span.
  std::map<long, std::pair<long, double>> wait_span;  // op -> (id, start)
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == "service.wait") wait_span[s.op] = {s.id, s.start_us};
  }

  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  double solve_ms_total = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  long long hits = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& r = samples[i];
    const long op = static_cast<long>(i);  // every caller sent them all
    encode_us += r.encode_us;
    decode_us += r.decode_us;
    queue_ms.push_back(r.queue_ms);
    hits += r.hit;
    if (!r.hit) {
      solve_ms.push_back(r.solve_ms);
      solve_ms_total += r.solve_ms;
    }
    const auto it = wait_span.find(op);
    if (it == wait_span.end()) continue;
    const auto [wait_id, at] = it->second;
    const double queued_end = at + r.queue_ms * 1e3;
    tracer.add("service.queue", wait_id, at, queued_end, op);
    if (!r.hit) {
      tracer.add("core.solve", wait_id, queued_end,
                 queued_end + r.solve_ms * 1e3, op);
    }
  }
  const double n = static_cast<double>(samples.size());
  report_core_layers(report, n, solve_ms_total);
  const double batches = static_cast<double>(counter_value("service.batches"));
  report.set("service.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
  report.set("service.solve_ms_p50", quantile(solve_ms, 0.5), "ms");
  report.set("service.cache_hit_ratio", ratio(static_cast<double>(hits), n), "ratio");
  report.set("service.cache_evictions",
             ratio(static_cast<double>(counter_value("service.cache_evictions")), n),
             "count");
  report.set("service.batch_fill",
             ratio(ratio(static_cast<double>(counter_value("service.accepted")), batches),
                   kPoolWidth),
             "ratio");
  report.set("service.wire_encode_us", ratio(encode_us, n), "us");
  report.set("service.wire_decode_us", ratio(decode_us, n), "us");
  report.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
  return report;
}

}  // namespace perfbench
