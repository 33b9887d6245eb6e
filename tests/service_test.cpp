/// \file service_test.cpp
/// \brief Wire codec, warm cache, and solver-service robustness suite.
///
/// The service tests run the real solver on small instances through the
/// in-process `SolverService` API (no sockets — transport plumbing is
/// covered by the CLI smoke in scripts/ci.sh).  Determinism-sensitive
/// cases pin `batch_size` and enqueue before `start()` so batch
/// composition, cache arrival order, and shed decisions are fixed.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "baselines/mst_baseline.hpp"
#include "common/faultpoint.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/solve.hpp"
#include "helpers.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "wsn/io.hpp"
#include "wsn/metrics.hpp"

namespace {

using namespace mrlc;
using namespace mrlc::service;

// ---------------------------------------------------------------- wire --

WireRequest sample_request() {
  WireRequest request;
  request.id = "req-42";
  request.lifetime = 123.5;
  request.budget = 1000;
  request.deadline_ms = 250;
  request.network_text = "mrlc-network v1\nfake payload bytes\n";
  return request;
}

TEST(Wire, RequestRoundTrip) {
  const WireRequest original = sample_request();
  const WireRequest decoded = decode_request(encode_request(original));
  EXPECT_EQ(decoded.id, original.id);
  EXPECT_EQ(decoded.variant, original.variant);
  EXPECT_DOUBLE_EQ(decoded.lifetime, original.lifetime);
  EXPECT_EQ(decoded.budget, original.budget);
  EXPECT_EQ(decoded.deadline_ms, original.deadline_ms);
  EXPECT_EQ(decoded.network_text, original.network_text);
}

TEST(Wire, OptionalRequestFieldsDefaultToUnlimited) {
  WireRequest request = sample_request();
  request.budget = -1;
  request.deadline_ms = -1;
  const WireRequest decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.budget, -1);
  EXPECT_EQ(decoded.deadline_ms, -1);
}

TEST(Wire, ResponseRoundTrip) {
  WireResponse response;
  response.id = "req-42";
  response.status = ResponseStatus::kBudgetExhausted;
  response.detail = "budget exhausted between IRA outer iterations";
  response.has_solution = true;
  response.cost = 1.25;
  response.reliability = 0.875;
  response.lifetime = 4000.0;
  response.gap = 0.125;
  response.budget_used = 77;
  response.cache = "miss";
  response.tree_text = "mrlc-tree v1\nsome tree bytes\n";
  const WireResponse decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.detail, response.detail);
  EXPECT_TRUE(decoded.has_solution);
  EXPECT_DOUBLE_EQ(decoded.cost, response.cost);
  EXPECT_DOUBLE_EQ(decoded.reliability, response.reliability);
  EXPECT_EQ(decoded.budget_used, response.budget_used);
  EXPECT_EQ(decoded.cache, "miss");
  EXPECT_EQ(decoded.tree_text, response.tree_text);
}

TEST(Wire, EveryStatusTokenRoundTrips) {
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kBudgetExhausted,
        ResponseStatus::kCancelled, ResponseStatus::kInfeasible,
        ResponseStatus::kRejectedOverload, ResponseStatus::kRejectedDraining,
        ResponseStatus::kInvalidRequest, ResponseStatus::kInternalError}) {
    EXPECT_EQ(status_from_string(to_string(status)), status);
  }
  EXPECT_THROW(status_from_string("nonsense"), WireError);
}

TEST(Wire, RejectsMalformedRequestPayloads) {
  const std::string good = encode_request(sample_request());
  const std::vector<std::string> bad = {
      "",                                          // empty
      "mrlc-request v2\n",                         // wrong version
      "mrlc-response v1\n",                        // wrong document type
      "mrlc-request v1\nlifetime 1\nnetwork 0\n",  // missing id
      "mrlc-request v1\nid a\nvariant mrlc\nlifetime 1\n",  // missing network
      "mrlc-request v1\nid a\nid b\nvariant mrlc\nlifetime 1\nnetwork 0\n",
      "mrlc-request v1\nid a\nvariant mrlc\nlifetime xyz\nnetwork 0\n",
      "mrlc-request v1\nid a\nvariant mrlc\nlifetime 1\nbudget -3\nnetwork 0\n",
      "mrlc-request v1\nid a\nvariant mrlc\nlifetime 1\nnetwork 99\nshort\n",
      "mrlc-request v1\nid a\nvariant mrlc\nlifetime 1\nwhatkey 1\nnetwork 0\n",
      good + "trailing garbage",                   // bytes after the block
  };
  for (const std::string& payload : bad) {
    EXPECT_THROW(decode_request(payload), WireError) << payload;
  }
}

TEST(Wire, FramingRoundTripsThroughChunkedReader) {
  const std::string p1 = encode_request(sample_request());
  const std::string p2 = "mrlc-response v1\nid x\nstatus ok\n"
                         "budget-used 0\ncache none\nqueue-ms 0\nsolve-ms 0\n";
  const std::string stream = frame(p1) + frame(p2);
  FrameReader reader;
  std::vector<std::string> out;
  // Feed a byte at a time: the reader must reassemble frames regardless of
  // how the transport fragments them.
  for (const char c : stream) {
    reader.feed(&c, 1);
    std::string payload;
    while (reader.next(payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], p1);
  EXPECT_EQ(out[1], p2);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, FrameReaderRejectsBadMagicAndOversizedLength) {
  {
    FrameReader reader;
    reader.feed("XXXX\x01\x00\x00\x00Z", 9);
    std::string payload;
    EXPECT_THROW(reader.next(payload), WireError);
    // Poisoned: even a later valid frame is refused.
    EXPECT_THROW(reader.next(payload), WireError);
  }
  {
    FrameReader reader;
    const std::string huge = {'M', 'R', 'F', '1', '\xFF', '\xFF', '\xFF', '\x7F'};
    reader.feed(huge.data(), huge.size());
    std::string payload;
    EXPECT_THROW(reader.next(payload), WireError);
  }
}

// --------------------------------------------------------------- cache --

TEST(WarmCache, TopologyHashMatchesFnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors; pins the on-disk/log format.
  EXPECT_EQ(topology_hash(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(topology_hash("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(topology_hash("foobar"), 0x85944171F73967E8ULL);
}

TEST(WarmCache, ResultHitRequiresExactKey) {
  WarmCache cache(4);
  CachedResult result;
  result.tree_text = "tree";
  const std::string key = WarmCache::result_key("mrlc", 100.0, -1);
  cache.store_result(1, key, result);
  EXPECT_NE(cache.find_result(1, key), nullptr);
  EXPECT_EQ(cache.find_result(1, WarmCache::result_key("mrlc", 101.0, -1)),
            nullptr);
  EXPECT_EQ(cache.find_result(1, WarmCache::result_key("mrlc", 100.0, 5)),
            nullptr);
  EXPECT_EQ(cache.find_result(2, key), nullptr);
  EXPECT_EQ(cache.stats().result_hits, 1);
  EXPECT_EQ(cache.stats().result_misses, 3);
}

TEST(WarmCache, LruEvictsTheColdestTopology) {
  WarmCache cache(2);
  const std::string key = WarmCache::result_key("mrlc", 1.0, -1);
  cache.store_result(1, key, CachedResult{});
  cache.store_result(2, key, CachedResult{});
  ASSERT_NE(cache.find_result(1, key), nullptr);  // 1 is now hottest
  cache.store_result(3, key, CachedResult{});     // evicts 2
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.find_result(1, key), nullptr);
  EXPECT_EQ(cache.find_result(2, key), nullptr);
  EXPECT_NE(cache.find_result(3, key), nullptr);
}

TEST(WarmCache, PoolLeaseIsExclusiveUntilReleased) {
  WarmCache cache(4);
  core::SubtourCutPool* pool = cache.lease(7, "mrlc");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(cache.lease(7, "mrlc"), nullptr);  // second lease refused
  cache.release(7, "mrlc");
  EXPECT_EQ(cache.lease(7, "mrlc"), pool);  // same warmed pool comes back
  cache.release(7, "mrlc");
  EXPECT_EQ(cache.stats().pool_leases, 2);
}

TEST(WarmCache, PoolsAreKeyedPerVariant) {
  // Regression: the pool lease used to be keyed by topology alone, so an
  // etx solve could replay subtour cuts separated under the mrlc
  // objective (cross-variant warmth made a solve's separation trajectory
  // depend on which *other* variants previously ran on the topology).
  WarmCache cache(4);
  core::SubtourCutPool* mrlc_pool = cache.lease(7, "mrlc");
  ASSERT_NE(mrlc_pool, nullptr);
  core::SubtourCutPool* etx_pool = cache.lease(7, "etx");
  ASSERT_NE(etx_pool, nullptr);        // not blocked by the mrlc lease
  EXPECT_NE(etx_pool, mrlc_pool);      // and a distinct pool object
  EXPECT_EQ(cache.lease(7, "etx"), nullptr);  // per-variant exclusivity
  cache.release(7, "mrlc");
  cache.release(7, "etx");
  EXPECT_EQ(cache.lease(7, "mrlc"), mrlc_pool);  // each variant keeps its
  EXPECT_EQ(cache.lease(7, "etx"), etx_pool);    // own warmed pool
  cache.release(7, "mrlc");
  cache.release(7, "etx");
  EXPECT_EQ(cache.stats().pool_leases, 4);
}

TEST(WarmCache, ReleaseOfWrongVariantLeaseIsALogicError) {
  WarmCache cache(4);
  ASSERT_NE(cache.lease(7, "mrlc"), nullptr);
  EXPECT_THROW(cache.release(7, "etx"), std::logic_error);
  cache.release(7, "mrlc");
}

TEST(WarmCache, LeasedEntriesSurviveEvictionPressure) {
  WarmCache cache(1);
  core::SubtourCutPool* pool = cache.lease(1, "mrlc");
  ASSERT_NE(pool, nullptr);
  // Capacity is full with a leased entry: new topologies are refused
  // rather than dangling the borrowed pool.
  EXPECT_EQ(cache.lease(2, "mrlc"), nullptr);
  cache.release(1, "mrlc");
  EXPECT_NE(cache.lease(2, "mrlc"), nullptr);  // now 1 is evictable
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(WarmCache, AnyLeasedVariantPoolBlocksEviction) {
  WarmCache cache(1);
  ASSERT_NE(cache.lease(1, "mrlc"), nullptr);
  ASSERT_NE(cache.lease(1, "etx"), nullptr);
  cache.release(1, "mrlc");
  // The etx pool is still borrowed: topology 1 must not be evicted.
  EXPECT_EQ(cache.lease(2, "mrlc"), nullptr);
  cache.release(1, "etx");
  EXPECT_NE(cache.lease(2, "mrlc"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(WarmCache, QuarantineDropsEntryAndBlacklistsHash) {
  WarmCache cache(4);
  const std::string key = WarmCache::result_key("mrlc", 1.0, -1);
  cache.store_result(9, key, CachedResult{});
  core::SubtourCutPool* pool = cache.lease(9, "mrlc");
  ASSERT_NE(pool, nullptr);
  cache.quarantine(9);
  EXPECT_TRUE(cache.is_quarantined(9));
  EXPECT_EQ(cache.stats().poisoned, 1);
  EXPECT_EQ(cache.find_result(9, key), nullptr);   // results gone
  EXPECT_EQ(cache.lease(9, "mrlc"), nullptr);      // no new leases
  cache.store_result(9, key, CachedResult{});      // refused
  EXPECT_EQ(cache.find_result(9, key), nullptr);
  cache.quarantine(9);                             // idempotent
  EXPECT_EQ(cache.stats().poisoned, 1);
}

TEST(WarmCache, ZeroCapacityDisablesEverything) {
  WarmCache cache(0);
  EXPECT_EQ(cache.lease(1, "mrlc"), nullptr);
  cache.store_result(1, "k", CachedResult{});
  EXPECT_EQ(cache.find_result(1, "k"), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ------------------------------------------------------------- service --

/// Thread-safe reply collector (replies arrive from the dispatcher).
struct ReplyLog {
  std::mutex mutex;
  std::vector<WireResponse> replies;

  SolverService::ReplyFn sink() {
    return [this](const WireResponse& r) {
      std::lock_guard<std::mutex> lock(mutex);
      replies.push_back(r);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex);
    return replies.size();
  }
  WireResponse by_id(const std::string& id) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const WireResponse& r : replies) {
      if (r.id == id) return r;
    }
    ADD_FAILURE() << "no reply with id " << id;
    return {};
  }
};

struct ServiceFixture : ::testing::Test {
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }

  /// Deterministic connected instance plus an LC every spanning tree of
  /// interest can meet (the MST's own lifetime).
  static wsn::Network make_network(std::uint64_t seed, int nodes = 10) {
    Rng rng(seed);
    return mrlc::testing::small_random_network(nodes, 0.5, rng);
  }
  static double feasible_lifetime(const wsn::Network& net) {
    return wsn::network_lifetime(net, baselines::mst_baseline(net).tree);
  }
  static WireRequest make_request(const wsn::Network& net, std::string id,
                                  double lifetime) {
    WireRequest request;
    request.id = std::move(id);
    request.lifetime = lifetime;
    request.network_text = wsn::network_to_string(net);
    return request;
  }
};

TEST_F(ServiceFixture, SolveMatchesDirectAnytimeByteForByte) {
  const wsn::Network net = make_network(11);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;
  SolverService service(options);
  ReplyLog log;
  service.submit(make_request(net, "a", lc), log.sink());
  service.start();
  service.drain();

  const WireResponse reply = log.by_id("a");
  EXPECT_EQ(reply.status, ResponseStatus::kOk);
  EXPECT_EQ(reply.cache, "miss");
  ASSERT_TRUE(reply.has_solution);

  // First contact leases an *empty* pool, so the trajectory matches a
  // pool-free direct solve exactly — the parity the CI smoke also checks
  // against one-shot mrlc_solve.
  Budget unlimited;
  core::SolveRequest request;
  request.bound = lc;
  request.ira.budget = &unlimited;
  const core::SolveResult direct = core::solve(net, request);
  EXPECT_EQ(reply.tree_text, wsn::tree_to_string(direct.tree));
  EXPECT_DOUBLE_EQ(reply.cost, direct.cost);
}

TEST_F(ServiceFixture, RepeatRequestIsServedFromCacheByteIdentical) {
  const wsn::Network net = make_network(12);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;  // two batches: the second sees the stored result
  SolverService service(options);
  ReplyLog log;
  service.submit(make_request(net, "first", lc), log.sink());
  service.submit(make_request(net, "second", lc), log.sink());
  service.start();
  service.drain();

  const WireResponse first = log.by_id("first");
  const WireResponse second = log.by_id("second");
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_EQ(first.cache, "miss");
  EXPECT_EQ(second.cache, "hit");
  EXPECT_EQ(first.tree_text, second.tree_text);
  EXPECT_DOUBLE_EQ(first.cost, second.cost);
  EXPECT_EQ(service.cache_stats().result_hits, 1);
}

TEST_F(ServiceFixture, EveryVariantRoundTripsWithDirectSolveParity) {
  const wsn::Network net = make_network(21);
  const double mrlc_lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;
  SolverService service(options);
  ReplyLog log;
  for (const core::VariantId id : core::all_variants()) {
    // A loose bound keeps every variant feasible; mrlc uses its usual MST
    // lifetime so this stays aligned with the other service tests.
    const double lc = id == core::VariantId::kMrlc ? mrlc_lc : 1.0;
    WireRequest request = make_request(net, core::to_string(id), lc);
    request.variant = core::to_string(id);
    service.submit(std::move(request), log.sink());
  }
  service.start();
  service.drain();

  for (const core::VariantId id : core::all_variants()) {
    const WireResponse reply = log.by_id(core::to_string(id));
    EXPECT_EQ(reply.status, ResponseStatus::kOk) << core::to_string(id);
    EXPECT_EQ(reply.cache, "miss") << core::to_string(id);
    ASSERT_TRUE(reply.has_solution) << core::to_string(id);

    // Same parity contract as the mrlc byte-for-byte test: first contact
    // leases an empty pool, so each variant's reply must match a pool-free
    // direct anytime solve of that variant exactly.
    Budget unlimited;
    core::SolveRequest request;
    request.variant = id;
    request.bound = id == core::VariantId::kMrlc ? mrlc_lc : 1.0;
    request.ira.budget = &unlimited;
    const core::SolveResult direct = core::solve(net, request);
    EXPECT_EQ(reply.tree_text, wsn::tree_to_string(direct.tree))
        << core::to_string(id);
    EXPECT_DOUBLE_EQ(reply.cost, direct.cost) << core::to_string(id);
  }
}

TEST_F(ServiceFixture, ResultCacheNeverCrossServesVariants) {
  const wsn::Network net = make_network(22);

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;  // one batch per request: each sees prior stores
  SolverService service(options);
  ReplyLog log;
  // Identical network, lifetime, and budget — only the variant differs, so
  // any key that forgets the variant would serve mrlc's tree to etx.
  WireRequest first = make_request(net, "mrlc-first", 1.0);
  WireRequest cross = make_request(net, "etx-cross", 1.0);
  cross.variant = "etx";
  WireRequest repeat = make_request(net, "mrlc-repeat", 1.0);
  service.submit(std::move(first), log.sink());
  service.submit(std::move(cross), log.sink());
  service.submit(std::move(repeat), log.sink());
  service.start();
  service.drain();

  EXPECT_EQ(log.by_id("mrlc-first").cache, "miss");
  EXPECT_EQ(log.by_id("etx-cross").cache, "miss");
  EXPECT_EQ(log.by_id("mrlc-repeat").cache, "hit");
  EXPECT_EQ(service.cache_stats().result_hits, 1);
}

TEST_F(ServiceFixture, OverloadShedsWithTypedRepliesDeterministically) {
  const wsn::Network net = make_network(13);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;  // nothing drains, so occupancy is exact
  options.queue_capacity = 2;
  SolverService service(options);
  ReplyLog log;
  for (int i = 0; i < 5; ++i) {
    service.submit(make_request(net, "r" + std::to_string(i), lc), log.sink());
  }
  // Sheds reply inline: exactly the 3 submissions beyond capacity.
  EXPECT_EQ(log.size(), 3u);
  for (const std::string id : {"r2", "r3", "r4"}) {
    EXPECT_EQ(log.by_id(id).status, ResponseStatus::kRejectedOverload);
  }
  service.start();
  service.drain();
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.by_id("r0").status, ResponseStatus::kOk);
  EXPECT_EQ(log.by_id("r1").status, ResponseStatus::kOk);
}

TEST_F(ServiceFixture, DrainRejectsNewSubmissionsTyped) {
  SolverService service;  // auto-started, empty
  service.drain();
  ReplyLog log;
  service.submit(make_request(make_network(14), "late", 1.0), log.sink());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.by_id("late").status, ResponseStatus::kRejectedDraining);
}

TEST_F(ServiceFixture, MalformedPayloadsGetTypedRepliesAndServiceSurvives) {
  const wsn::Network net = make_network(15);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  SolverService service(options);
  ReplyLog log;
  service.submit_payload("complete garbage", log.sink());
  ASSERT_EQ(log.size(), 1u);  // decode failures reply inline

  // A syntactically valid request whose *network* is corrupt fails inside
  // the worker, typed, without hurting the good request beside it.
  WireRequest corrupt = make_request(net, "corrupt", lc);
  corrupt.network_text = "mrlc-network v1\nnot a real network\n";
  service.submit(std::move(corrupt), log.sink());
  service.submit(make_request(net, "good", lc), log.sink());
  service.start();
  service.drain();

  EXPECT_EQ(log.replies.front().status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(log.by_id("corrupt").status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(log.by_id("good").status, ResponseStatus::kOk);
}

TEST_F(ServiceFixture, UnsupportedVariantIsRejectedTyped) {
  ServiceOptions options;
  options.auto_start = false;
  SolverService service(options);
  ReplyLog log;
  WireRequest request = make_request(make_network(16), "odd", 1.0);
  request.variant = "mrlc-retx";  // reserved, not served yet
  service.submit(std::move(request), log.sink());
  service.start();
  service.drain();
  EXPECT_EQ(log.by_id("odd").status, ResponseStatus::kInvalidRequest);
}

TEST_F(ServiceFixture, ZeroBudgetDegradesToSeededIncumbent) {
  const wsn::Network net = make_network(17);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  SolverService service(options);
  ReplyLog log;
  WireRequest request = make_request(net, "zero", lc);
  request.budget = 0;  // hard zero: no LP work at all
  service.submit(std::move(request), log.sink());
  service.start();
  service.drain();

  const WireResponse reply = log.by_id("zero");
  EXPECT_EQ(reply.status, ResponseStatus::kBudgetExhausted);
  ASSERT_TRUE(reply.has_solution);
  EXPECT_FALSE(reply.tree_text.empty());
  EXPECT_EQ(reply.budget_used, 0);
  const wsn::AggregationTree tree = wsn::tree_from_string(reply.tree_text, net);
  EXPECT_GE(wsn::network_lifetime(net, tree), lc * (1.0 - 1e-12));
}

TEST_F(ServiceFixture, ExpiredDeadlineDegradesToSeededIncumbent) {
  const wsn::Network net = make_network(18);
  const double lc = feasible_lifetime(net);

  ServiceOptions options;
  options.auto_start = false;
  SolverService service(options);
  ReplyLog log;
  WireRequest request = make_request(net, "dead", lc);
  request.deadline_ms = 0;  // already expired at admission
  service.submit(std::move(request), log.sink());
  service.start();
  service.drain();

  const WireResponse reply = log.by_id("dead");
  EXPECT_EQ(reply.status, ResponseStatus::kBudgetExhausted);
  ASSERT_TRUE(reply.has_solution);
  EXPECT_EQ(reply.budget_used, 0);
}

TEST_F(ServiceFixture, WorkerCrashFaultYieldsCancelledAndServiceSurvives) {
  const wsn::Network net = make_network(19);
  const double lc = feasible_lifetime(net);
  fault::configure("service.worker_crash:1");

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;  // victim selection = first prepped request
  SolverService service(options);
  ReplyLog log;
  service.submit(make_request(net, "victim", lc), log.sink());
  service.submit(make_request(net, "healthy", lc), log.sink());
  service.start();
  service.drain();

  const WireResponse victim = log.by_id("victim");
  EXPECT_EQ(victim.status, ResponseStatus::kCancelled);
  // Graceful degradation even under the crash: the watchdog's cancel path
  // still ships the seeded incumbent.
  EXPECT_TRUE(victim.has_solution);
  EXPECT_EQ(log.by_id("healthy").status, ResponseStatus::kOk);
  EXPECT_EQ(fault::injected_count(), 1);
  EXPECT_EQ(fault::recovered_count(), 1);
}

TEST_F(ServiceFixture, CachePoisonFaultQuarantinesTheTopology) {
  const wsn::Network net = make_network(20);
  const double lc = feasible_lifetime(net);
  fault::configure("service.cache_poison:1");

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 1;
  SolverService service(options);
  ReplyLog log;
  service.submit(make_request(net, "poisoned", lc), log.sink());
  service.submit(make_request(net, "after", lc), log.sink());
  service.start();
  service.drain();

  // The poisoned entry is dropped before its result could be stored, so
  // the follow-up request solves fresh (still correctly) instead of
  // hitting state under suspicion.
  EXPECT_EQ(log.by_id("poisoned").status, ResponseStatus::kOk);
  const WireResponse after = log.by_id("after");
  EXPECT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_EQ(after.cache, "miss");
  EXPECT_EQ(service.cache_stats().poisoned, 1);
  EXPECT_EQ(service.cache_stats().result_hits, 0);
  EXPECT_EQ(log.by_id("poisoned").tree_text, after.tree_text);
  EXPECT_EQ(fault::recovered_count(), 1);
}

TEST_F(ServiceFixture, SlowRequestFaultOnlyAddsLatency) {
  const wsn::Network net = make_network(21);
  const double lc = feasible_lifetime(net);
  fault::configure("service.slow_request:1");

  ServiceOptions options;
  options.auto_start = false;
  SolverService service(options);
  ReplyLog log;
  service.submit(make_request(net, "slow", lc), log.sink());
  service.start();
  service.drain();

  EXPECT_EQ(log.by_id("slow").status, ResponseStatus::kOk);
  EXPECT_EQ(fault::recovered_count(), 1);
}

TEST_F(ServiceFixture, TreesAndCacheCountersAreThreadCountInvariant) {
  // The determinism contract: fixed submissions + pinned batch size give
  // identical trees and cache counters whether solves run on 1 worker
  // thread or 8 (batch composition is pinned and every cache mutation and
  // fault-arrival decision happens at a serial checkpoint).
  std::vector<std::string> trees_by_run[2];
  CacheStats stats_by_run[2];
  for (int run = 0; run < 2; ++run) {
    set_default_thread_count(run == 0 ? 1 : 8);
    const wsn::Network a = make_network(22);
    const wsn::Network b = make_network(23);
    ServiceOptions options;
    options.auto_start = false;
    options.batch_size = 4;  // pinned: must NOT follow the pool width
    options.record_timings = false;
    SolverService service(options);
    ReplyLog log;
    int next = 0;
    for (const wsn::Network* net : {&a, &b, &a, &b, &a}) {
      service.submit(
          make_request(*net, "r" + std::to_string(next++),
                       feasible_lifetime(*net)),
          log.sink());
    }
    service.start();
    service.drain();
    for (int i = 0; i < next; ++i) {
      trees_by_run[run].push_back(log.by_id("r" + std::to_string(i)).tree_text);
    }
    stats_by_run[run] = service.cache_stats();
  }
  set_default_thread_count(0);  // restore hardware default for later tests
  EXPECT_EQ(trees_by_run[0], trees_by_run[1]);
  EXPECT_EQ(stats_by_run[0].result_hits, stats_by_run[1].result_hits);
  EXPECT_EQ(stats_by_run[0].result_misses, stats_by_run[1].result_misses);
  // Batch 1 holds [a, b, a, b]: results are stored at finalize, so the
  // same-batch repeats still miss; only batch 2's trailing `a` hits.
  EXPECT_EQ(stats_by_run[0].result_hits, 1);
}

// ------------------------------------------------------------- soak ----

TEST_F(ServiceFixture, MetricsSnapshotCarriesEveryGoldenServiceKey) {
  // The deterministic service instruments are a documented contract
  // (docs/metrics.md, tests/data/service_metrics_keys.golden): the
  // metrics document a drained daemon flushes must contain every key,
  // registered eagerly so even never-bumped counters appear.
  const wsn::Network net = make_network(77);
  {
    SolverService service;
    ReplyLog log;
    service.submit(make_request(net, "m0", feasible_lifetime(net)),
                   log.sink());
    service.drain();
    ASSERT_EQ(log.size(), 1u);
  }
  const std::string json = metrics::to_json_string(true);

  std::ifstream golden(MRLC_SERVICE_METRICS_GOLDEN);
  ASSERT_TRUE(golden.is_open())
      << "cannot open " << MRLC_SERVICE_METRICS_GOLDEN;
  std::string line;
  int checked = 0;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(json.find("\"" + line + "\""), std::string::npos)
        << "metrics document is missing golden key " << line;
    ++checked;
  }
  EXPECT_GT(checked, 0) << "golden file listed no keys";
}

TEST_F(ServiceFixture, SoakMixedGoodCorruptAndExpiringRequests) {
  // 500 requests: rotating healthy topologies, corrupt-corpus payloads,
  // zero-deadline degraders, and raw-garbage frames.  Every submission
  // gets exactly one typed reply and the drain finishes clean — under the
  // ASan suite this is also the leak gauntlet.
  std::vector<std::string> corrupt_corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(MRLC_CORRUPT_DIR)) {
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    corrupt_corpus.push_back(buffer.str());
  }
  ASSERT_FALSE(corrupt_corpus.empty());

  const wsn::Network nets[3] = {make_network(31, 8), make_network(32, 9),
                                make_network(33, 10)};
  double lcs[3];
  for (int i = 0; i < 3; ++i) lcs[i] = feasible_lifetime(nets[i]);

  ServiceOptions options;
  options.auto_start = false;
  options.batch_size = 4;
  options.queue_capacity = 600;  // soak admission, shed is covered elsewhere
  options.record_timings = false;
  SolverService service(options);
  ReplyLog log;

  constexpr int kRequests = 500;
  int expected_invalid = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "soak-" + std::to_string(i);
    switch (i % 5) {
      case 0:
      case 1: {  // healthy solve (cache-heavy after the first pass)
        const int which = i % 3;
        service.submit(make_request(nets[which], id, lcs[which]), log.sink());
        break;
      }
      case 2: {  // corrupt network body -> invalid_request from the worker
        WireRequest request = make_request(nets[0], id, lcs[0]);
        request.network_text = corrupt_corpus[static_cast<std::size_t>(i) %
                                              corrupt_corpus.size()];
        service.submit(std::move(request), log.sink());
        ++expected_invalid;
        break;
      }
      case 3: {  // deadline already expired -> graceful incumbent
        WireRequest request = make_request(nets[1], id, lcs[1]);
        request.deadline_ms = 0;
        // Distinct budget => distinct result-cache key: without this the
        // healthy solves' converged result (same topology, lifetime, and
        // unlimited budget) would legitimately serve these as `ok` hits.
        request.budget = 1000000007;
        service.submit(std::move(request), log.sink());
        break;
      }
      case 4:  // undecodable payload -> inline invalid_request
        service.submit_payload("frame of pure noise #" + std::to_string(i),
                               log.sink());
        ++expected_invalid;
        break;
    }
  }
  service.start();
  service.drain();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kRequests));
  int ok = 0, degraded = 0, invalid = 0;
  for (const WireResponse& reply : log.replies) {
    switch (reply.status) {
      case ResponseStatus::kOk: ++ok; break;
      case ResponseStatus::kBudgetExhausted: ++degraded; break;
      case ResponseStatus::kInvalidRequest: ++invalid; break;
      default:
        ADD_FAILURE() << "unexpected status " << to_string(reply.status)
                      << " for " << reply.id;
    }
  }
  EXPECT_EQ(ok, 200);        // cases 0/1
  EXPECT_EQ(degraded, 100);  // case 3
  EXPECT_EQ(invalid, expected_invalid);
  EXPECT_GT(service.cache_stats().result_hits, 0);
}

}  // namespace
