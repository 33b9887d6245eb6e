/// \file extra_fault_recovery.cpp
/// \brief Extension experiment (no counterpart figure in the paper): how
/// well does the distributed maintainer survive node deaths?
///
/// The paper's Section VI protocol repairs link-quality drift; this bench
/// stresses the fault-tolerant extension: G(n, p) networks run a churn +
/// crash schedule, and after every death the maintainer reattaches the
/// orphaned subtrees.  Reported per control-plane configuration:
///
/// * healed fraction — deaths fully absorbed without detaching anyone;
/// * reliability retained — Q(repaired tree) relative to a from-scratch
///   IRA rebuild on the surviving subnetwork (the centralized answer a
///   basestation could compute if it were reachable);
/// * control messages per death — floods plus, in lossy mode, the digest
///   beacons and anti-entropy pulls needed to re-converge the replicas.
///
/// Everything is seeded: two runs print identical tables.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/solve.hpp"
#include "distributed/churn.hpp"
#include "distributed/failure.hpp"
#include "distributed/simulator.hpp"
#include "scenario/random_net.hpp"
#include "wsn/metrics.hpp"

namespace {

struct Config {
  std::string label;
  bool lossy = false;
  int control_retx = 0;
  bool allow_relaxation = false;
};

struct Accumulator {
  int deaths = 0;
  int healed = 0;
  int degraded = 0;
  int partitioned = 0;
  long long repair_messages = 0;
  long long resync_rounds = 0;
  double retained_sum = 0.0;
  int retained_samples = 0;
  int inconsistent = 0;
};

Accumulator run_schedule(const Config& config, double link_probability) {
  using namespace mrlc;
  constexpr int kNodes = 50;
  constexpr int kFaultsPerRun = 8;
  constexpr int kChurnStepsPerFault = 3;
  constexpr int kRuns = 3;
  constexpr std::uint64_t kBaseSeed = 20150901;  // ICPP'15, nothing more

  core::SolveRequest request;
  request.ira.bound_mode = core::BoundMode::kDirect;

  Accumulator acc;
  for (int run = 0; run < kRuns; ++run) {
    Rng rng(kBaseSeed + static_cast<std::uint64_t>(run));
    scenario::RandomNetworkConfig net_config;
    net_config.node_count = kNodes;
    net_config.link_probability = link_probability;
    net_config.prr_min = 0.6;
    net_config.prr_max = 0.99;
    wsn::Network net = scenario::make_random_network(net_config, rng);

    const double bound = net.energy_model().node_lifetime(3000.0, 8);
    request.bound = bound;
    const core::SolveResult ira = core::solve(net, request);
    if (!ira.meets_bound) continue;  // also false when infeasible

    dist::MaintainerOptions maintainer_options;
    maintainer_options.allow_lc_relaxation = config.allow_relaxation;
    dist::FloodOptions flood;
    flood.lossy = config.lossy;
    flood.control_retx = config.control_retx;
    flood.seed = kBaseSeed ^ (static_cast<std::uint64_t>(run) << 8);
    dist::ProtocolSimulator sim(net, ira.tree, bound, maintainer_options, flood);

    dist::ChurnOptions churn_options;
    churn_options.cost_noise_sigma = 0.03;
    dist::ChurnProcess churn(net, churn_options);

    Rng fault_rng = rng.fork(0xFA17);
    const dist::FailureSchedule schedule =
        dist::random_crash_schedule(net, kFaultsPerRun, 1000.0, fault_rng);
    for (const dist::FailureEvent& event : schedule.events) {
      for (int step = 0; step < kChurnStepsPerFault; ++step) {
        for (const dist::LinkEvent& link_event : churn.step(net, rng)) {
          link_event.kind == dist::LinkEvent::Kind::kDegraded
              ? sim.on_link_degraded(net, link_event.link)
              : sim.on_link_improved(net, link_event.link);
        }
      }
      if (!net.node_alive(event.node)) continue;

      const long long before = sim.stats().control_messages();
      const dist::RepairOutcome outcome = sim.on_node_failed(net, event.node);
      acc.repair_messages += sim.stats().control_messages() - before;
      ++acc.deaths;
      switch (outcome.status) {
        case dist::RepairStatus::kHealed: ++acc.healed; break;
        case dist::RepairStatus::kHealedDegraded: ++acc.degraded; break;
        case dist::RepairStatus::kPartitioned: ++acc.partitioned; break;
      }
      if (!sim.replicas_consistent()) ++acc.inconsistent;

      // Reliability retained vs a centralized from-scratch rebuild on the
      // compacted surviving subnetwork (only comparable when the repair
      // kept every survivor attached and the rebuild is feasible).
      if (sim.tree().member_count() == net.alive_node_count()) {
        const dist::CompactNetwork compact = dist::compact_alive_network(net);
        // An infeasible rebuild (survivors disconnected or bound
        // unreachable) never meets the bound: no baseline.
        const core::SolveResult rebuilt = core::solve(compact.net, request);
        if (rebuilt.meets_bound) {
          const double q_rebuilt =
              wsn::tree_reliability(compact.net, rebuilt.tree);
          if (q_rebuilt > 0.0) {
            acc.retained_sum +=
                wsn::tree_reliability(net, sim.tree()) / q_rebuilt;
            ++acc.retained_samples;
          }
        }
      }
    }
    acc.resync_rounds += sim.stats().resync_rounds;
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrlc;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Extra", "fault recovery of the distributed maintainer");
  bench::print_note(
      "extension experiment: crash schedules on G(50, p) under churn; "
      "repaired trees vs from-scratch IRA rebuilds on the survivors");

  const std::vector<Config> configs = {
      {"reliable floods", false, 0, false},
      {"lossy, retx 1", true, 1, false},
      {"lossy, retx 3", true, 3, false},
      {"lossy, retx 3, relax LC", true, 3, true},
  };

  Table table({"control plane", "p", "deaths", "healed", "degraded",
               "partitioned", "heal frac", "rel. retained", "msgs/death",
               "resync rounds"});
  for (const Config& config : configs) {
    for (const double link_probability : {0.12, 0.055}) {
      const Accumulator acc = run_schedule(config, link_probability);
      table.begin_row()
          .add(config.label)
          .add(link_probability, 3)
          .add(acc.deaths)
          .add(acc.healed)
          .add(acc.degraded)
          .add(acc.partitioned)
          .add(acc.deaths > 0 ? static_cast<double>(acc.healed) / acc.deaths
                              : 0.0,
               3)
          .add(acc.retained_samples > 0
                   ? acc.retained_sum / acc.retained_samples
                   : 0.0,
               4)
          .add(acc.deaths > 0
                   ? static_cast<double>(acc.repair_messages) / acc.deaths
                   : 0.0,
               1)
          .add(acc.resync_rounds);
      if (acc.inconsistent > 0) {
        std::cerr << "WARNING: " << acc.inconsistent
                  << " repairs left replicas inconsistent (" << config.label
                  << ", p " << link_probability << ")\n";
      }
    }
  }
  bench::emit(table, args);
  return 0;
}
