/// \file parallel_test.cpp
/// \brief Concurrency battery for the thread pool and the parallel solver
/// core.
///
/// Three layers, increasingly end-to-end:
///
///  1. `ThreadPool` lifecycle: reuse across dispatches, worker-index
///     plumbing, exception capture from concurrent workers, nested calls
///     running inline, resizing.
///  2. In-process determinism: the IRA cutting-plane solver and the exact
///     branch-and-bound produce the identical tree, cost, and metric
///     counters for every pool width (the guarantee the parallel
///     separation sweep and frontier waves were designed around).
///  3. CLI determinism: `mrlc_solve --threads 1` and `--threads 8` emit
///     byte-identical trees and (timings aside) identical metrics JSON on
///     seed workloads, exercising the whole binary the way a user would.
///
/// The whole file runs under ThreadSanitizer in scripts/ci.sh's tsan
/// stage; tests that want real concurrency size their pools explicitly
/// instead of trusting hardware_concurrency (CI boxes may report 1).

#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mst_baseline.hpp"
#include "common/budget.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/branch_bound.hpp"
#include "core/ira.hpp"
#include "helpers.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

namespace {

using namespace mrlc;

// --------------------------------------------------------- pool lifecycle --

TEST(ThreadPool, ReusedAcrossDispatchesVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    constexpr int kCount = 1000;
    std::vector<std::atomic<int>> visits(kCount);
    pool.for_each(kCount, [&](int i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < kCount; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, WorkerIndexIsInRangeAndBothBodyShapesWork) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> bad_worker{0};
  std::atomic<int> sum{0};
  pool.for_each(200, [&](int i, unsigned worker) {
    if (worker >= pool.thread_count()) bad_worker.fetch_add(1);
    sum.fetch_add(i);
  });
  EXPECT_EQ(bad_worker.load(), 0);
  EXPECT_EQ(sum.load(), 200 * 199 / 2);

  // The single-argument shape dispatches through the same trampoline.
  std::atomic<int> count{0};
  pool.for_each(64, [&](int i) {
    (void)i;
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SerialPoolRethrowsTheFirstExceptionInIndexOrder) {
  ThreadPool pool(1);
  try {
    pool.for_each(100, [](int i) {
      if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(ThreadPool, ConcurrentExceptionIsOneOfTheThrownSetAndPoolSurvives) {
  ThreadPool pool(4);
  try {
    pool.for_each(500, [](int i) {
      if (i % 97 == 3) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    const int index = std::stoi(e.what());
    EXPECT_EQ(index % 97, 3) << "exception came from a non-throwing index";
  }

  // The failed dispatch must not poison the pool.
  std::atomic<int> count{0};
  pool.for_each(256, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPool, NestedForEachRunsInlineOnTheOuterWorker) {
  ThreadPool pool(4);
  constexpr int kOuter = 8;
  constexpr int kInner = 50;
  std::atomic<int> total{0};
  std::atomic<int> escaped{0};  // inner iterations on a different thread
  pool.for_each(kOuter, [&](int) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    EXPECT_TRUE(ThreadPool::in_pool_work());
    pool.for_each(kInner, [&](int) {
      if (std::this_thread::get_id() != outer_thread) escaped.fetch_add(1);
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
  EXPECT_EQ(escaped.load(), 0);
  EXPECT_FALSE(ThreadPool::in_pool_work());
}

TEST(ThreadPool, ResizeRebuildsTheWorkerSet) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  pool.resize(5);
  EXPECT_EQ(pool.thread_count(), 5u);
  std::atomic<int> count{0};
  pool.for_each(300, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 300);
  pool.resize(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  pool.resize(0);  // hardware concurrency, but never less than one worker
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, NegativeCountIsRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(-1, [](int) {}), std::invalid_argument);
}

TEST(ThreadPool, MaxWorkersCapsTheFanOut) {
  ThreadPool pool(4);
  std::atomic<int> bad_worker{0};
  pool.for_each(
      100,
      [&](int, unsigned worker) {
        if (worker >= 2) bad_worker.fetch_add(1);
      },
      /*max_workers=*/2);
  EXPECT_EQ(bad_worker.load(), 0);
}

TEST(DefaultPool, SetDefaultThreadCountResizesTheSharedPool) {
  const unsigned before = default_thread_count();
  set_default_thread_count(2);
  EXPECT_EQ(default_thread_count(), 2u);
  std::atomic<int> count{0};
  default_pool().for_each(128, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 128);
  set_default_thread_count(before);
}

TEST(ThreadPool, BudgetCancelRacingActiveChargesIsStickyAndClean) {
  // The service watchdog flips `Budget::cancel()` from outside the worker
  // that is charging at its serial checkpoints.  Under TSan (this file is
  // in the tsan smoke set) this pins the contract: the race is clean, the
  // cancellation is observed promptly, and exhaustion is sticky.
  ThreadPool pool(8);
  constexpr long long kSafetyBound = 200'000'000;
  for (int round = 0; round < 50; ++round) {
    Budget budget;
    budget.set_work_limit(kSafetyBound * 2);  // never the stop reason
    std::atomic<long long> charged{0};
    pool.for_each(8, [&](int i) {
      if (i == 0) {
        long long n = 0;
        while (budget.charge() && n < kSafetyBound) ++n;
        charged.store(n);
      } else {
        budget.cancel();
      }
    });
    EXPECT_TRUE(budget.cancelled());
    EXPECT_TRUE(budget.exhausted());
    EXPECT_FALSE(budget.charge());  // sticky after the race settles
    EXPECT_LT(charged.load(), kSafetyBound) << "cancellation was lost";
  }
}

// --------------------------------------------- in-process determinism -----

/// Everything the solver outputs that must not depend on the pool width.
struct SolveFingerprint {
  std::vector<graph::EdgeId> ira_edges;
  double ira_cost = 0.0;
  std::vector<graph::EdgeId> bb_edges;
  double bb_cost = 0.0;
  std::uint64_t bb_explored = 0;
  long long maxflow_calls = 0;
  long long separation_calls = 0;
  long long violated_sets = 0;
  long long nodes_expanded = 0;
  long long nodes_pruned = 0;
  long long incumbent_updates = 0;

  bool operator==(const SolveFingerprint&) const = default;
};

SolveFingerprint solve_with_threads(unsigned threads) {
  set_default_thread_count(threads);
  metrics::set_enabled(true);
  metrics::reset();

  SolveFingerprint fp;
  {
    scenario::RandomNetworkConfig config;
    config.node_count = 16;
    config.link_probability = 0.6;
    Rng rng(99);
    const wsn::Network net = scenario::make_random_network(config, rng);
    const double bound = baselines::mst_baseline(net).lifetime;
    core::IraOptions options;
    options.bound_mode = core::BoundMode::kDirect;
    const core::IraResult ira = core::IterativeRelaxation(options).solve(net, bound);
    fp.ira_edges = ira.tree.edge_ids();
    fp.ira_cost = wsn::tree_cost(net, ira.tree);
  }
  {
    // A binding bound (max ~2 children per node) defeats the greedy warm
    // start's immediate prune, so the search genuinely expands nodes and
    // the frontier waves genuinely run on the pool.
    Rng rng(3000);
    const wsn::Network net =
        mrlc::testing::small_random_network(12, 0.9, rng, 0.5, 1.0);
    const double bound = net.energy_model().node_lifetime(3000.0, 2) * 0.99;
    const auto bb = core::branch_bound_mrlc(net, bound, {});
    if (!bb.has_value()) {
      ADD_FAILURE() << "seed instance must be feasible";
      return fp;
    }
    fp.bb_edges = bb->tree.edge_ids();
    fp.bb_cost = bb->cost;
    fp.bb_explored = bb->nodes_explored;
  }
  fp.maxflow_calls = metrics::counter("separation.maxflow_calls").value();
  fp.separation_calls = metrics::counter("separation.calls").value();
  fp.violated_sets = metrics::counter("separation.violated_sets").value();
  fp.nodes_expanded = metrics::counter("branch_bound.nodes_expanded").value();
  fp.nodes_pruned = metrics::counter("branch_bound.nodes_pruned").value();
  fp.incumbent_updates = metrics::counter("branch_bound.incumbent_updates").value();
  return fp;
}

// gtest macros with ASSERT inside helpers need void returns; wrap.
void run_solve_with_threads(unsigned threads, SolveFingerprint& out) {
  out = SolveFingerprint{};
  SolveFingerprint fp;
  {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fp = solve_with_threads(threads);
  }
  out = fp;
}

TEST(Determinism, SolverTreeAndCountersAreIdenticalForEveryPoolWidth) {
  const unsigned before = default_thread_count();
  SolveFingerprint serial;
  run_solve_with_threads(1, serial);
  EXPECT_FALSE(serial.ira_edges.empty());
  EXPECT_GT(serial.maxflow_calls, 0);
  EXPECT_GT(serial.nodes_expanded, 0);

  for (const unsigned threads : {2u, 8u}) {
    SolveFingerprint parallel;
    run_solve_with_threads(threads, parallel);
    EXPECT_EQ(parallel.ira_edges, serial.ira_edges) << "threads=" << threads;
    EXPECT_EQ(parallel.ira_cost, serial.ira_cost) << "threads=" << threads;
    EXPECT_EQ(parallel.bb_edges, serial.bb_edges) << "threads=" << threads;
    EXPECT_EQ(parallel.bb_cost, serial.bb_cost) << "threads=" << threads;
    EXPECT_TRUE(parallel == serial)
        << "fingerprint mismatch at threads=" << threads << ": maxflow "
        << parallel.maxflow_calls << "/" << serial.maxflow_calls
        << ", expanded " << parallel.nodes_expanded << "/"
        << serial.nodes_expanded << ", pruned " << parallel.nodes_pruned << "/"
        << serial.nodes_pruned;
  }
  set_default_thread_count(before);
}

TEST(Determinism, BranchBoundBudgetGuardTripsIdenticallyWhenParallel) {
  const unsigned before = default_thread_count();
  Rng rng(3000);
  const wsn::Network net =
      mrlc::testing::small_random_network(12, 0.9, rng, 0.5, 1.0);
  const double bound = net.energy_model().node_lifetime(3000.0, 2) * 0.99;
  core::BranchBoundOptions options;
  options.max_nodes_explored = 5;
  for (const unsigned threads : {1u, 8u}) {
    set_default_thread_count(threads);
    EXPECT_THROW(core::branch_bound_mrlc(net, bound, options),
                 std::invalid_argument)
        << "threads=" << threads;
  }
  set_default_thread_count(before);
}

// --------------------------------------------------- CLI determinism ------

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
#ifndef _WIN32
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  return status;
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Blanks the phase wall-times, the only legitimately nondeterministic
/// values in a metrics document.
std::string scrub_wall_times(const std::string& json) {
  static const std::regex total_ms("\"total_ms\": [0-9.eE+-]+");
  return std::regex_replace(json, total_ms, "\"total_ms\": X");
}

TEST(DeterminismCli, SolveEmitsByteIdenticalTreesAcrossThreadCounts) {
  for (const int seed : {7, 8, 9}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string net = tmp_path("par_net_" + std::to_string(seed) + ".txt");
    ASSERT_EQ(run_command(std::string(MRLC_TOOL_GEN) + " dfl --nodes 16 --seed " +
                          std::to_string(seed) + " > " + net),
              0);

    const std::string tree1 = tmp_path("par_tree1_" + std::to_string(seed));
    const std::string tree8 = tmp_path("par_tree8_" + std::to_string(seed));
    const std::string json1 = tmp_path("par_json1_" + std::to_string(seed));
    const std::string json8 = tmp_path("par_json8_" + std::to_string(seed));
    const int rc1 = run_command(
        std::string(MRLC_TOOL_SOLVE) + " ira --lifetime 100 --threads 1" +
        " --metrics-json " + json1 + " < " + net + " > " + tree1 + " 2>/dev/null");
    const int rc8 = run_command(
        std::string(MRLC_TOOL_SOLVE) + " ira --lifetime 100 --threads 8" +
        " --metrics-json " + json8 + " < " + net + " > " + tree8 + " 2>/dev/null");
    EXPECT_EQ(rc1, rc8);
    EXPECT_EQ(read_file(tree1), read_file(tree8)) << "tree output diverged";
    EXPECT_EQ(scrub_wall_times(read_file(json1)), scrub_wall_times(read_file(json8)))
        << "metrics (counters/histograms) diverged";
  }
}

}  // namespace
