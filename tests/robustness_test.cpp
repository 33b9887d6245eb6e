/// \file robustness_test.cpp
/// \brief The PR's acceptance battery: Budget token semantics, anytime
/// statuses (optimal / budget-exhausted / infeasible / cancelled), the
/// 25%-budget anytime gate with thread-count determinism, and the fault
/// injection harness (every recoverable fault recovers to the identical
/// tree; `parallel.task_fail` surfaces as a typed error).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "baselines/mst_baseline.hpp"
#include "common/budget.hpp"
#include "common/faultpoint.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/anytime.hpp"
#include "core/ira.hpp"
#include "helpers.hpp"
#include "lp/instance.hpp"
#include "scenario/dfl.hpp"
#include "wsn/io.hpp"

namespace mrlc {
namespace {

// --------------------------------------------------------------- Budget --

TEST(Budget, WorkLimitExhaustsAtTheLimit) {
  Budget budget;
  budget.set_work_limit(3);
  EXPECT_TRUE(budget.charge());   // used 1
  EXPECT_TRUE(budget.charge());   // used 2
  EXPECT_TRUE(budget.charge());   // used 3 == limit: still within budget
  EXPECT_FALSE(budget.charge());  // used 4 > limit
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.used(), 4);
  // Sticky: headroom never comes back.
  EXPECT_FALSE(budget.charge());
}

TEST(Budget, ZeroLimitIsHardZero) {
  // A zero work limit means "no work at all": the token is exhausted
  // before any charge, so entry checkpoints (IRA outer loop, cut loop)
  // bail out with zero units used instead of letting one pivot through.
  Budget budget;
  budget.set_work_limit(0);
  EXPECT_TRUE(budget.exhausted()) << "hard zero: exhausted before any charge";
  EXPECT_FALSE(budget.charge());
  EXPECT_TRUE(budget.exhausted());
}

TEST(Budget, BulkChargeCountsEveryUnit) {
  Budget budget;
  budget.set_work_limit(100);
  EXPECT_TRUE(budget.charge(100));
  EXPECT_FALSE(budget.charge(1));
  EXPECT_EQ(budget.used(), 101);
}

TEST(Budget, CancelIsStickyAndCrossesCharges) {
  Budget budget;
  EXPECT_TRUE(budget.charge());
  budget.cancel();
  EXPECT_TRUE(budget.cancelled());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_FALSE(budget.charge());
}

TEST(Budget, ZeroDeadlineIsHardZero) {
  // `--deadline-ms 0` means "already expired", not "poll the clock after
  // the first 64-unit stride": the token is exhausted before any charge.
  Budget budget;
  budget.set_deadline_ms(0);
  EXPECT_TRUE(budget.exhausted()) << "hard zero: expired before any charge";
  EXPECT_FALSE(budget.charge());
}

TEST(Budget, GenerousDeadlineLeavesHeadroom) {
  // A far-future deadline never trips inside a short charge run (the clock
  // is polled at stride boundaries, so cross several of them).
  Budget budget;
  budget.set_deadline_ms(60'000);
  bool headroom = true;
  for (int i = 0; i < 256; ++i) headroom = budget.charge();
  EXPECT_TRUE(headroom);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(budget.has_deadline());
}

TEST(Budget, UnlimitedNeverExhausts) {
  Budget budget;
  EXPECT_TRUE(budget.charge(1'000'000));
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.has_deadline());
}

// -------------------------------------------------------------- anytime --

/// Every variant, mrlc included, runs the same anytime body; for mrlc an
/// unlimited run must reproduce a direct-mode IRA run exactly — tree,
/// metrics, every IraStats field — and certify with that run's first LP
/// optimum.
TEST(Anytime, UnlimitedRunMatchesPlainIra) {
  const testing::ToyNetwork toy;
  const wsn::Network dfl = scenario::make_dfl_system().network;
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const wsn::Network* net : {&toy.net, &dfl}) {
    SCOPED_TRACE(net == &dfl ? "dfl" : "toy");
    const double bound = baselines::mst_baseline(*net).lifetime;

    core::IraOptions direct;
    direct.bound_mode = core::BoundMode::kDirect;
    core::IraProgress progress;
    direct.progress = &progress;
    const core::IraResult plain =
        core::IterativeRelaxation(direct).solve(*net, bound);

    const core::AnytimeResult anytime = core::solve_anytime(*net, bound);
    EXPECT_EQ(anytime.status, core::AnytimeStatus::kOptimal);
    EXPECT_FALSE(anytime.from_incumbent);
    EXPECT_EQ(wsn::tree_to_string(anytime.tree), wsn::tree_to_string(plain.tree));
    EXPECT_EQ(bits(anytime.cost), bits(plain.cost));
    EXPECT_EQ(bits(anytime.objective), bits(plain.cost));
    EXPECT_EQ(bits(anytime.reliability), bits(plain.reliability));
    EXPECT_EQ(bits(anytime.lifetime), bits(plain.lifetime));
    EXPECT_EQ(anytime.meets_bound, plain.meets_bound);
    EXPECT_TRUE(anytime.meets_bound);

    const core::IraStats& a = anytime.stats;
    const core::IraStats& p = plain.stats;
    EXPECT_EQ(a.outer_iterations, p.outer_iterations);
    EXPECT_EQ(a.lp_solves, p.lp_solves);
    EXPECT_EQ(a.simplex_iterations, p.simplex_iterations);
    EXPECT_EQ(a.cuts_added, p.cuts_added);
    EXPECT_EQ(a.edges_removed, p.edges_removed);
    EXPECT_EQ(a.constraints_removed, p.constraints_removed);
    EXPECT_EQ(a.cold_fallbacks, p.cold_fallbacks);
    EXPECT_EQ(a.used_fallback, p.used_fallback);

    // The certified bound is the plain run's first LP optimum, bit for bit.
    ASSERT_TRUE(progress.first_lp_valid);
    EXPECT_EQ(bits(anytime.dual_bound),
              bits(std::max(progress.first_lp_objective, 0.0)));
    EXPECT_GE(anytime.gap, 0.0);
    EXPECT_EQ(bits(anytime.gap),
              bits(std::max(anytime.cost - anytime.dual_bound, 0.0)));
  }
}

TEST(Anytime, ZeroBudgetReturnsTheSeedIncumbent) {
  const testing::ToyNetwork toy;
  const double bound = baselines::mst_baseline(toy.net).lifetime;
  Budget budget;
  budget.set_work_limit(0);
  core::AnytimeOptions options;
  options.budget = &budget;

  const core::AnytimeResult result = core::solve_anytime(toy.net, bound, options);
  EXPECT_EQ(result.status, core::AnytimeStatus::kFeasibleBudgetExhausted);
  EXPECT_TRUE(result.from_incumbent);
  EXPECT_EQ(budget.used(), 0) << "hard-zero budget must not run any LP work";
  EXPECT_TRUE(result.meets_bound) << "the MST achieves its own lifetime";
  EXPECT_EQ(result.tree.node_count(), toy.net.node_count());
  EXPECT_GE(result.gap, 0.0);
  EXPECT_FALSE(result.message.empty());
}

TEST(Anytime, CancellationComesBackAsItsOwnStatus) {
  const testing::ToyNetwork toy;
  const double bound = baselines::mst_baseline(toy.net).lifetime;
  Budget budget;
  budget.cancel();
  core::AnytimeOptions options;
  options.budget = &budget;

  const core::AnytimeResult result = core::solve_anytime(toy.net, bound, options);
  EXPECT_EQ(result.status, core::AnytimeStatus::kCancelled);
  EXPECT_TRUE(result.from_incumbent);
  EXPECT_EQ(result.tree.node_count(), toy.net.node_count());
}

/// The headline acceptance gate: on a stock bench workload, a budget of
/// 25% of the full run's work must yield a typed budget-exhausted result
/// carrying an LC-feasible tree and a finite certified gap — and the whole
/// outcome (tree, gap, units charged) must be bit-identical across thread
/// counts.
TEST(Anytime, QuarterBudgetYieldsFeasibleTreeDeterministically) {
  const wsn::Network net = scenario::make_dfl_system().network;
  const double bound = baselines::mst_baseline(net).lifetime;

  // Full run, with a budget attached only to meter the total work.
  Budget meter;
  core::AnytimeOptions metered;
  metered.budget = &meter;
  const core::AnytimeResult full = core::solve_anytime(net, bound, metered);
  ASSERT_EQ(full.status, core::AnytimeStatus::kOptimal);
  ASSERT_GT(meter.used(), 0);

  const auto run_quarter = [&](unsigned threads) {
    const unsigned before = default_thread_count();
    set_default_thread_count(threads);
    Budget budget;
    budget.set_work_limit(meter.used() / 4);
    core::AnytimeOptions options;
    options.budget = &budget;
    const core::AnytimeResult result = core::solve_anytime(net, bound, options);
    set_default_thread_count(before);
    return std::make_pair(result, budget.used());
  };

  const auto [serial, serial_used] = run_quarter(1);
  EXPECT_EQ(serial.status, core::AnytimeStatus::kFeasibleBudgetExhausted);
  EXPECT_TRUE(serial.meets_bound);
  EXPECT_EQ(serial.tree.node_count(), net.node_count());
  EXPECT_GE(serial.dual_bound, 0.0);
  EXPECT_GE(serial.gap, 0.0);
  EXPECT_LE(serial.cost, full.cost + full.gap + 1.0)
      << "incumbent cost must stay in a sane range";

  const auto [wide, wide_used] = run_quarter(8);
  EXPECT_EQ(wide.status, serial.status);
  EXPECT_EQ(wide_used, serial_used)
      << "budget charges must hit serial checkpoints only";
  EXPECT_EQ(wsn::tree_to_string(wide.tree), wsn::tree_to_string(serial.tree));
  EXPECT_DOUBLE_EQ(wide.cost, serial.cost);
  EXPECT_DOUBLE_EQ(wide.gap, serial.gap);

  // Golden outcome of this interrupted run, captured before mrlc moved
  // onto the shared variant route: the cutoff point, the returned
  // incumbent and its certified gap must not move.
  EXPECT_EQ(meter.used(), 81);
  EXPECT_EQ(serial_used, 21);
  EXPECT_TRUE(serial.from_incumbent);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.gap), 0x3f60689af237fca0ULL);
  EXPECT_EQ(wsn::tree_to_string(serial.tree),
            "mrlc-tree v1\n"
            "nodes 16\n"
            "parent 1 6\n"
            "parent 2 12\n"
            "parent 3 15\n"
            "parent 4 13\n"
            "parent 5 13\n"
            "parent 6 0\n"
            "parent 7 0\n"
            "parent 8 4\n"
            "parent 9 0\n"
            "parent 10 13\n"
            "parent 11 14\n"
            "parent 12 15\n"
            "parent 13 9\n"
            "parent 14 0\n"
            "parent 15 5\n");
}

// --------------------------------------------------------------- faults --

/// Every fault test disarms the process-wide registry on both sides so a
/// failing assertion cannot leak an armed fault into later tests.
class FaultHarness : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(FaultHarness, ConfigureRejectsUnknownNamesListingTheRegistry) {
  try {
    fault::configure("no.such_fault");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no.such_fault"), std::string::npos) << what;
    EXPECT_NE(what.find("lp.force_cold"), std::string::npos)
        << "message must list the registered points: " << what;
  }
  EXPECT_THROW(fault::configure("lp.force_cold:zero"), std::invalid_argument);
  EXPECT_THROW(fault::configure("lp.force_cold:0"), std::invalid_argument);
  EXPECT_EQ(fault::registered().size(), 8u);
}

TEST_F(FaultHarness, OneShotFormFiresOnTheKthArrivalOnly) {
  fault::configure("lp.force_cold:2");
  EXPECT_FALSE(fault::fire("lp.force_cold"));
  EXPECT_TRUE(fault::fire("lp.force_cold"));
  EXPECT_FALSE(fault::fire("lp.force_cold"));
  EXPECT_EQ(fault::injected_count(), 1);
}

TEST_F(FaultHarness, UnarmedPointsNeverFire) {
  EXPECT_FALSE(fault::fire("lp.force_cold"));
  EXPECT_EQ(fault::injected_count(), 0);
}

/// The recoverable faults, each forced on *every* arrival over a full IRA
/// solve on the 16-node DFL instance, and the whole battery run once per
/// LP engine: the returned tree and cost must be identical to that
/// engine's clean run, and every injection must be matched by an audited
/// recovery.
TEST_F(FaultHarness, RecoverableFaultsReturnTheIdenticalTree) {
  const wsn::Network net = scenario::make_dfl_system().network;
  const double bound = baselines::mst_baseline(net).lifetime;
  core::IraOptions options;
  options.bound_mode = core::BoundMode::kDirect;

  const lp::Engine saved = lp::default_engine();
  for (const lp::Engine engine : {lp::Engine::kSparse, lp::Engine::kDense}) {
    lp::set_default_engine(engine);
    const char* engine_name =
        engine == lp::Engine::kSparse ? "sparse" : "dense";
    const core::IraResult clean =
        core::IterativeRelaxation(options).solve(net, bound);
    const std::string clean_tree = wsn::tree_to_string(clean.tree);

    const struct {
      const char* name;
      bool must_fire;  ///< cutpool.corrupt needs pool hits this workload lacks
    } kFaults[] = {
        {"lp.force_cold", true},
        {"lp.drop_basis", true},
        {"separation.flow_fail", true},
        {"cutpool.corrupt", false},
    };
    for (const auto& f : kFaults) {
      fault::reset();
      fault::configure(f.name);
      const core::IraResult faulted =
          core::IterativeRelaxation(options).solve(net, bound);
      EXPECT_EQ(wsn::tree_to_string(faulted.tree), clean_tree)
          << engine_name << ": " << f.name;
      EXPECT_DOUBLE_EQ(faulted.cost, clean.cost)
          << engine_name << ": " << f.name;
      if (f.must_fire) {
        EXPECT_GT(fault::injected_count(), 0) << engine_name << ": " << f.name;
      }
      EXPECT_EQ(fault::injected_count(), fault::recovered_count())
          << engine_name << ": " << f.name
          << ": every injection needs an audited recovery";
    }
  }
  lp::set_default_engine(saved);
}

/// `lp.drop_basis` recovery at the LP layer, bit-for-bit: the cut loop
/// recovers from a dropped basis by replaying its solve trajectory on a
/// fresh bounded-visibility instance (core/lp_formulation.cpp).  For the
/// sparse engine the replayed instance must reconstruct the *identical*
/// factorized basis — same basic set, same primal values to the last bit,
/// same nonbasic bound sides — so the remaining cut rounds cannot diverge.
TEST_F(FaultHarness, DropBasisReplayReconstructsTheSparseBasisBitIdentically) {
  Rng rng(987654);
  const int vars = 6;
  lp::Model m;
  for (int v = 0; v < vars; ++v) {
    m.add_variable(rng.uniform(-3.0, 1.0), 0.0, rng.uniform(0.5, 4.0));
  }
  for (int r = 0; r < 2; ++r) {
    std::vector<lp::Term> terms;
    for (lp::VarId v = 0; v < vars; ++v) {
      terms.push_back({v, rng.uniform(0.0, 2.0)});
    }
    m.add_row(lp::Relation::kLessEqual, rng.uniform(3.0, 8.0), terms);
  }

  lp::SimplexOptions options;
  options.engine = lp::Engine::kSparse;
  lp::LpInstance live(m, options);
  struct Step {
    int rows;
    bool warm;
  };
  std::vector<Step> trajectory;
  ASSERT_EQ(live.solve().status, lp::SolveStatus::kOptimal);
  trajectory.push_back({m.constraint_count(), false});
  for (int cut = 0; cut < 4; ++cut) {
    std::vector<lp::Term> terms;
    for (lp::VarId v = 0; v < vars; ++v) {
      terms.push_back({v, rng.uniform(-0.5, 2.0)});
    }
    m.add_row(lp::Relation::kLessEqual, rng.uniform(0.5, 3.0), terms);
    live.sync_new_rows();
    ASSERT_EQ(live.resolve().status, lp::SolveStatus::kOptimal) << cut;
    trajectory.push_back({m.constraint_count(), true});
  }
  ASSERT_TRUE(live.has_basis());
  const lp::BasisSnapshot lost = live.basis_snapshot();

  // The fault arrives: the retained basis is silently invalidated.  Recover
  // exactly the way the cut loop does — replay the recorded trajectory on a
  // fresh instance that starts with only the first solve's rows visible.
  fault::configure("lp.drop_basis");
  ASSERT_TRUE(fault::fire("lp.drop_basis"));
  lp::LpInstance replayed(m, trajectory.front().rows, options);
  for (const Step& step : trajectory) {
    replayed.sync_new_rows(step.rows);
    const lp::Solution s = (step.warm && replayed.has_basis())
                               ? replayed.resolve()
                               : replayed.solve();
    ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  }
  fault::note_recovered("lp.drop_basis");

  EXPECT_TRUE(replayed.basis_snapshot() == lost)
      << "replay must reconstruct the dropped sparse basis bit-identically";
  EXPECT_EQ(fault::injected_count(), fault::recovered_count());
}

TEST_F(FaultHarness, PoolTaskFailureSurfacesAsTypedError) {
  const wsn::Network net = scenario::make_dfl_system().network;
  const double bound = baselines::mst_baseline(net).lifetime;
  fault::configure("parallel.task_fail");
  core::IraOptions options;
  options.bound_mode = core::BoundMode::kDirect;
  try {
    core::IterativeRelaxation(options).solve(net, bound);
    FAIL() << "expected the injected task failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(fault::injected_count(), 0);
}

}  // namespace
}  // namespace mrlc
