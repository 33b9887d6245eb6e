/// \file mrlc_gen.cpp
/// \brief Instance generator CLI: writes mrlc-network files for the two
/// scenario families (the DFL testbed and G(n, p) random networks).
///
/// Usage:
///   mrlc_gen dfl [--seed S] [--tx LEVEL] [--side METERS] > net.txt
///   mrlc_gen random [--seed S] [--nodes N] [--p PROB]
///                   [--prr-min Q] [--prr-max Q]
///                   [--energy-min J] [--energy-max J] > net.txt
///
/// Either mode also takes [--faults K] [--horizon ROUNDS] [--fault-seed S]
/// to append a reproducible crash schedule (a `fault-schedule v1` block) to
/// the network file; `mrlc_solve faults` replays such combined files.
///
/// Either mode also takes [--arq ATTEMPTS] [--ack-fraction F]
/// [--channel bernoulli|gilbert-elliott] [--burst B] to append an
/// `arq`/`channel` data-plane config block; `mrlc_solve dataplane` picks it
/// up as its defaults.
///
/// Either mode also takes [--annotate-cost LIFETIME] [--variant NAME] to
/// solve the freshly generated instance and prepend an `# expected-cost`
/// comment carrying the optimal objective under that problem variant —
/// golden tests diff the annotation to pin generator + solver together.

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "core/solve.hpp"
#include "distributed/failure.hpp"
#include "radio/arq.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "wsn/io.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage:\n"
               "  mrlc_gen dfl [--seed S] [--tx LEVEL] [--side METERS]\n"
               "  mrlc_gen random [--seed S] [--nodes N] [--p PROB]\n"
               "                  [--prr-min Q] [--prr-max Q]\n"
               "                  [--energy-min J] [--energy-max J]\n"
               "both modes: [--faults K] [--horizon ROUNDS] [--fault-seed S]\n"
               "            [--arq ATTEMPTS] [--ack-fraction F]\n"
               "            [--channel bernoulli|gilbert-elliott] [--burst B]\n"
               "            [--annotate-cost LIFETIME] [--variant NAME]\n"
               "writes an mrlc-network v1 file (plus optional fault-schedule\n"
               "and arq/channel config blocks) to stdout; --annotate-cost\n"
               "solves the instance under --variant (mrlc | etx | min_energy\n"
               "| max_lifetime; default mrlc) at the given lifetime bound and\n"
               "prepends an `# expected-cost` comment with the objective\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage();
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

double flag_or(const std::map<std::string, std::string>& flags,
               const std::string& name, double fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stod(it->second);
}

/// Appends a seeded crash schedule after the network block when --faults is
/// given; the combined file stays readable by wsn::read_network (fault lines
/// are skipped there) and by dist::read_fault_schedule.
void emit_fault_schedule(const std::map<std::string, std::string>& flags,
                         const mrlc::wsn::Network& net, std::uint64_t net_seed) {
  const int faults = static_cast<int>(flag_or(flags, "faults", 0));
  if (faults <= 0) return;
  const double horizon = flag_or(flags, "horizon", 1000.0);
  const auto fault_seed = static_cast<std::uint64_t>(
      flag_or(flags, "fault-seed", static_cast<double>(net_seed + 1)));
  mrlc::Rng rng(fault_seed);
  const mrlc::dist::FailureSchedule schedule =
      mrlc::dist::random_crash_schedule(net, faults, horizon, rng);
  std::cout << "# " << faults << " crash faults over " << horizon
            << " rounds, fault seed " << fault_seed << '\n';
  mrlc::dist::write_fault_schedule(std::cout, schedule);
}

/// Appends an `arq`/`channel` data-plane config block when any of the
/// data-plane flags is given (mrlc_solve dataplane reads it as defaults).
void emit_dataplane_config(const std::map<std::string, std::string>& flags) {
  mrlc::radio::DataPlaneConfig config;
  if (flags.count("arq")) {
    config.has_arq = true;
    config.arq.max_attempts = static_cast<int>(flag_or(flags, "arq", 8));
  }
  if (flags.count("ack-fraction")) {
    config.has_arq = true;
    config.arq.ack_fraction = flag_or(flags, "ack-fraction", 0.1);
  }
  const auto channel_it = flags.find("channel");
  if (channel_it != flags.end()) {
    config.has_channel = true;
    if (channel_it->second == "bernoulli") {
      config.channel.model = mrlc::radio::ChannelModel::kBernoulli;
    } else if (channel_it->second == "gilbert-elliott" ||
               channel_it->second == "ge") {
      config.channel.model = mrlc::radio::ChannelModel::kGilbertElliott;
    } else {
      usage();
    }
  }
  if (flags.count("burst")) {
    config.has_channel = true;
    config.channel.mean_bad_burst = flag_or(flags, "burst", 8.0);
  }
  if (!config.has_arq && !config.has_channel) return;
  if (config.has_arq) config.arq.validate();
  if (config.has_channel) config.channel.validate();
  mrlc::radio::write_dataplane_config(std::cout, config);
}

/// Solves the generated instance under `--variant` at the `--annotate-cost`
/// lifetime bound and prints the expected-cost annotation comment.  Readers
/// skip `#` lines, so annotated files stay valid mrlc-network-v1 input; the
/// line itself is stable enough to diff in golden tests:
///
///     # expected-cost variant=etx lifetime=500 objective=6.1237311043
void emit_expected_cost(const std::map<std::string, std::string>& flags,
                        const mrlc::wsn::Network& net) {
  const auto bound_it = flags.find("annotate-cost");
  if (bound_it == flags.end()) {
    if (flags.count("variant")) usage();  // --variant needs --annotate-cost
    return;
  }
  const auto variant_it = flags.find("variant");
  const std::string name =
      variant_it == flags.end() ? "mrlc" : variant_it->second;
  const auto id = mrlc::core::variant_from_string(name);
  if (!id.has_value()) usage();
  const double bound = std::stod(bound_it->second);
  mrlc::core::SolveRequest request;
  request.variant = *id;
  request.bound = bound;
  const mrlc::core::SolveResult result = mrlc::core::solve(net, request);
  if (result.status == mrlc::core::SolveStatus::kInfeasible) {
    throw mrlc::InfeasibleError(result.message);
  }
  std::cout << "# expected-cost variant=" << mrlc::core::to_string(*id)
            << " lifetime=" << bound << " objective=" << std::setprecision(10)
            << std::fixed << result.objective
            << std::defaultfloat << std::setprecision(6) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrlc;
  if (argc < 2) usage();
  const std::string mode = argv[1];

  try {
    if (mode == "dfl") {
      const auto flags = parse_flags(argc, argv, 2);
      scenario::DflConfig config;
      config.seed = static_cast<std::uint64_t>(flag_or(flags, "seed", 23));
      config.tx_power_level = static_cast<int>(flag_or(flags, "tx", 19));
      config.side_m = flag_or(flags, "side", 3.6);
      const scenario::DflSystem sys = scenario::make_dfl_system(config);
      std::cout << "# DFL testbed, seed " << config.seed << ", tx level "
                << config.tx_power_level << ", side " << config.side_m << " m\n";
      emit_expected_cost(flags, sys.network);
      wsn::write_network(std::cout, sys.network);
      emit_fault_schedule(flags, sys.network, config.seed);
      emit_dataplane_config(flags);
    } else if (mode == "random") {
      const auto flags = parse_flags(argc, argv, 2);
      scenario::RandomNetworkConfig config;
      config.node_count = static_cast<int>(flag_or(flags, "nodes", 16));
      config.link_probability = flag_or(flags, "p", 0.7);
      config.prr_min = flag_or(flags, "prr-min", 0.95);
      config.prr_max = flag_or(flags, "prr-max", 1.0);
      config.energy_min_j = flag_or(flags, "energy-min", 3000.0);
      config.energy_max_j = flag_or(flags, "energy-max", 3000.0);
      const auto seed = static_cast<std::uint64_t>(flag_or(flags, "seed", 1));
      Rng rng(seed);
      const wsn::Network net = scenario::make_random_network(config, rng);
      std::cout << "# G(n, p) instance, n " << config.node_count << ", p "
                << config.link_probability << '\n';
      emit_expected_cost(flags, net);
      wsn::write_network(std::cout, net);
      emit_fault_schedule(flags, net, seed);
      emit_dataplane_config(flags);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "mrlc_gen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
