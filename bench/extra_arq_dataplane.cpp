/// \file extra_arq_dataplane.cpp
/// \brief Extension experiment (no counterpart figure in the paper): the
/// ARQ data plane closed-loop demo.
///
/// Two questions the idealized pipeline cannot answer:
///
/// 1. *Observability* — the paper's Section VI protocol assumes nodes learn
///    link-quality changes instantly and exactly (an oracle).  Here repairs
///    can instead fire only from what senders observe: ACK outcomes of the
///    stop-and-wait ARQ on tree links plus sparse probe beacons, fed to an
///    EWMA estimator with hysteresis.  How much of the oracle's delivery
///    ratio does the estimator-driven loop recover, under i.i.d. losses and
///    under Gilbert–Elliott burst losses (where loss streaks mimic real
///    degradation and bait false repairs)?
///
/// 2. *Lifetime under ARQ* — `core::retx_aware_ira` guarantees its trees
///    meet the lifetime bound under the analytic retransmission energy
///    model.  The ARQ data plane spends strictly more (ACK overhead, and
///    attempts are confirmed by lossy ACKs: E[attempts] = 1/(q * q_ack) >
///    1/q).  Does the *measured* first-node-death extrapolation still meet
///    the bound the solver was given, i.e. does the model's conservatism
///    (each edge charged its worst role max(Tx, Rx)/q) absorb the ARQ
///    overhead?
///
/// Everything is seeded: two runs print identical tables.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/retx_ira.hpp"
#include "distributed/dataplane.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

namespace {

using namespace mrlc;

constexpr int kNodes = 30;
constexpr double kLinkProbability = 0.25;
constexpr int kRounds = 400;
constexpr int kInstances = 4;
constexpr std::uint64_t kBaseSeed = 20150901;  // ICPP'15, nothing more
/// LC passed to the solver, as a fraction of the single-node budget at 8
/// children; low enough to stay feasible under the conservative LP on every
/// seeded instance while leaving the bound genuinely binding.
constexpr double kLcFraction = 0.35;

struct Instance {
  wsn::Network net;
  wsn::AggregationTree tree;
  double bound = 0.0;
};

std::vector<Instance> make_instances() {
  std::vector<Instance> instances;
  core::IraOptions ira_options;
  ira_options.bound_mode = core::BoundMode::kDirect;
  for (int i = 0; instances.size() < kInstances && i < 4 * kInstances; ++i) {
    Rng rng(kBaseSeed + static_cast<std::uint64_t>(i));
    scenario::RandomNetworkConfig config;
    config.node_count = kNodes;
    config.link_probability = kLinkProbability;
    config.prr_min = 0.65;
    config.prr_max = 0.98;
    wsn::Network net = scenario::make_random_network(config, rng);
    const double bound =
        kLcFraction * net.energy_model().node_lifetime(3000.0, 8);
    try {
      core::SolveResult res = core::retx_aware_ira(net, bound, ira_options);
      if (!res.meets_bound) continue;
      instances.push_back({std::move(net), std::move(res.tree), bound});
    } catch (const InfeasibleError&) {
      continue;  // conservative LP gave up on this draw; next seed
    }
  }
  return instances;
}

dist::DataPlaneOptions base_options(const Instance& inst, int index,
                                    dist::RepairMode repair,
                                    radio::ChannelModel model) {
  dist::DataPlaneOptions options;
  options.rounds = kRounds;
  options.repair = repair;
  options.channel.model = model;
  options.churn.cost_noise_sigma = 0.02;
  options.seed = kBaseSeed ^ (static_cast<std::uint64_t>(index) << 16);
  (void)inst;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Extra", "ARQ data plane: estimation-driven repair");
  bench::print_note(
      "closed loop on G(30, 0.25): churn drifts the true PRRs; repairs fire "
      "from an oracle vs from ACK-fed EWMA estimators; same seeds per row");

  const std::vector<Instance> instances = make_instances();
  if (instances.empty()) {
    std::cerr << "no feasible instances drawn — aborting\n";
    return 1;
  }

  // --- Part 1: estimator-driven repair vs oracle, per channel model -------
  Table loop_table({"instance", "channel", "frozen", "oracle", "estimator",
                    "recovered", "repairs", "lag (rounds)", "false pos",
                    "est. MAE"});
  bool recovery_ok = true;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const int index = static_cast<int>(i);
    for (const auto model : {radio::ChannelModel::kBernoulli,
                             radio::ChannelModel::kGilbertElliott}) {
      const dist::DataPlaneResult frozen = run_dataplane(
          inst.net, inst.tree, inst.bound,
          base_options(inst, index, dist::RepairMode::kNone, model));
      const dist::DataPlaneResult oracle = run_dataplane(
          inst.net, inst.tree, inst.bound,
          base_options(inst, index, dist::RepairMode::kOracle, model));
      const dist::DataPlaneResult estimator = run_dataplane(
          inst.net, inst.tree, inst.bound,
          base_options(inst, index, dist::RepairMode::kEstimator, model));
      const double recovered =
          oracle.delivery_ratio > 0.0
              ? estimator.delivery_ratio / oracle.delivery_ratio
              : 1.0;
      if (recovered < 0.9) recovery_ok = false;
      loop_table.begin_row()
          .add(static_cast<int>(i))
          .add(model == radio::ChannelModel::kBernoulli ? "bernoulli" : "GE")
          .add(frozen.delivery_ratio, 4)
          .add(oracle.delivery_ratio, 4)
          .add(estimator.delivery_ratio, 4)
          .add(recovered, 4)
          .add(estimator.repairs_applied)
          .add(estimator.mean_detection_lag_rounds, 1)
          .add(estimator.false_positive_events)
          .add(estimator.estimate_mae, 4);
    }
  }
  bench::emit(loop_table, args);
  std::cout << (recovery_ok
                    ? "estimator recovers >= 90% of the oracle delivery "
                      "ratio on every row\n"
                    : "WARNING: estimator recovered < 90% of the oracle "
                      "delivery ratio on some row\n");

  // --- Part 2: measured ARQ lifetime vs the solver's guaranteed bound -----
  bench::print_header("Extra", "ARQ lifetime vs retx-aware guarantee");
  bench::print_note(
      "static links (no churn, no repair): measured first-node-death under "
      "full ARQ energy accounting vs the LC given to retx_aware_ira");
  Table life_table({"instance", "channel", "LC bound", "analytic retx",
                    "measured ARQ", "margin", "J/reading", "bound"});
  bool bound_ok = true;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const int index = static_cast<int>(i);
    const double analytic = wsn::network_lifetime_retx(inst.net, inst.tree);
    for (const auto model : {radio::ChannelModel::kBernoulli,
                             radio::ChannelModel::kGilbertElliott}) {
      dist::DataPlaneOptions options =
          base_options(inst, index, dist::RepairMode::kNone, model);
      options.churn.cost_noise_sigma = 0.0;  // freeze the true qualities
      const dist::DataPlaneResult res =
          run_dataplane(inst.net, inst.tree, inst.bound, options);
      const bool met = res.measured_lifetime_rounds >= inst.bound;
      if (!met) bound_ok = false;
      life_table.begin_row()
          .add(static_cast<int>(i))
          .add(model == radio::ChannelModel::kBernoulli ? "bernoulli" : "GE")
          .add(inst.bound, 0)
          .add(analytic, 0)
          .add(res.measured_lifetime_rounds, 0)
          .add(res.measured_lifetime_rounds / inst.bound, 3)
          .add(res.joules_per_reading * 1e3, 4)
          .add(met ? "met" : "VIOLATED");
    }
  }
  bench::emit(life_table, args);
  std::cout << (bound_ok ? "measured ARQ lifetime meets the solver's bound "
                           "on every instance\n"
                         : "WARNING: measured ARQ lifetime missed the "
                           "solver's bound on some instance\n");
  return recovery_ok && bound_ok ? 0 : 1;
}
