/// \file mrlc_solve.cpp
/// \brief MRLC solver CLI: reads an mrlc-network file from stdin, builds an
/// aggregation tree with the requested algorithm, reports metrics on
/// stderr, and writes the mrlc-tree file to stdout.
///
/// Usage:
///   mrlc_solve ira    --lifetime ROUNDS [--strict] < net.txt > tree.txt
///   mrlc_solve greedy --lifetime ROUNDS            < net.txt > tree.txt
///   mrlc_solve mst                                  < net.txt > tree.txt
///   mrlc_solve aaml   [--lex]                       < net.txt > tree.txt
///   mrlc_solve probe                                < net.txt
///   mrlc_solve faults --lifetime ROUNDS [--relax] [--lossy] [--retx N]
///                     [--seed S]                   < net+faults.txt
///   mrlc_solve dataplane --lifetime ROUNDS [--rounds N]
///                     [--repair none|oracle|estimator]
///                     [--channel bernoulli|gilbert-elliott] [--burst B]
///                     [--attempts N] [--ack-fraction F] [--probe P]
///                     [--churn-sigma S] [--seed S]  < net.txt
///
/// `probe` brackets the maximum achievable lifetime instead of solving.
/// `faults` replays the fault-schedule block appended by `mrlc_gen --faults`
/// against the distributed maintainer and reports each repair outcome.
/// `dataplane` runs the closed loop of churn, ARQ convergecast, online link
/// estimation and Section-VI repair; an `arq`/`channel` config block
/// appended to the network file (see `mrlc_gen --arq`) supplies defaults
/// that the flags override.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "baselines/aaml.hpp"
#include "common/budget.hpp"
#include "common/faultpoint.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "baselines/greedy_mrlc.hpp"
#include "baselines/mst_baseline.hpp"
#include "core/anytime.hpp"
#include "core/feasibility.hpp"
#include "core/solver.hpp"
#include "core/ira.hpp"
#include "distributed/dataplane.hpp"
#include "distributed/failure.hpp"
#include "lp/simplex.hpp"
#include "distributed/simulator.hpp"
#include "radio/arq.hpp"
#include "wsn/io.hpp"
#include "wsn/metrics.hpp"

namespace {

/// The modes `run` dispatches on; anything else is a usage error that is
/// reported before stdin is read.
bool known_mode(const std::string& mode) {
  for (const char* name : {"auto", "ira", "greedy", "mst", "aaml", "probe",
                           "faults", "dataplane"}) {
    if (mode == name) return true;
  }
  return false;
}

void print_usage(std::ostream& out) {
  out << "usage:\n"
         "  mrlc_solve auto   --lifetime ROUNDS [--certify] < net > tree\n"
         "  mrlc_solve ira    --lifetime ROUNDS [--strict]\n"
         "                    [--variant mrlc|etx|min_energy|max_lifetime]\n"
         "                    < net > tree\n"
         "  mrlc_solve greedy --lifetime ROUNDS             < net > tree\n"
         "  mrlc_solve mst                                  < net > tree\n"
         "  mrlc_solve aaml   [--lex]                       < net > tree\n"
         "  mrlc_solve probe                                < net\n"
         "  mrlc_solve faults --lifetime ROUNDS [--relax] [--lossy]\n"
         "                    [--retx N] [--seed S]         < net+faults\n"
         "  mrlc_solve dataplane --lifetime ROUNDS [--rounds N]\n"
         "                    [--repair none|oracle|estimator]\n"
         "                    [--channel bernoulli|gilbert-elliott]\n"
         "                    [--burst B] [--attempts N]\n"
         "                    [--ack-fraction F] [--probe P]\n"
         "                    [--churn-sigma S] [--seed S]\n"
         "                    [--window-rounds W]\n"
         "                    [--metrics-flush-every N]\n"
         "                    [--metrics-flush-path PATH] < net\n"
         "  mrlc_solve --help | -h   print this text to stdout, exit 0\n"
         "global flags:\n"
         "  --variant NAME        problem variant for ira/auto (default\n"
         "                        mrlc; etx minimizes expected ARQ\n"
         "                        transmissions under energy budgets,\n"
         "                        min_energy the expected radio energy,\n"
         "                        max_lifetime maximizes the lifetime\n"
         "                        with --lifetime as a floor)\n"
         "  --metrics-json PATH   write solver metrics (counters, phase\n"
         "                        timings) as JSON after the run\n"
         "  --threads N           worker threads for the parallel solver\n"
         "                        core (0 = hardware concurrency); the\n"
         "                        tree and counters are identical for\n"
         "                        every N\n"
         "  --engine sparse|dense LP engine (default sparse; dense is\n"
         "                        the historical tableau oracle)\n"
         "  --lp-crosscheck       audit every sparse LP solve against\n"
         "                        the dense oracle (testing; ~2x cost)\n"
         "  --deadline-ms N       wall-clock budget; ira/auto then run\n"
         "                        anytime: on exhaustion the best\n"
         "                        incumbent tree and a certified gap\n"
         "                        are returned with exit code 2\n"
         "  --budget N            deterministic work budget (simplex\n"
         "                        pivots + separation max-flows); same\n"
         "                        anytime semantics, bit-reproducible\n"
         "  --inject SPEC         arm fault points: name[:K][,...]\n"
         "                        (K = fire on the Kth arrival only;\n"
         "                        also via env MRLC_FAULTS)\n"
         "exit codes:\n"
         "  0 solved   2 feasible, budget exhausted (incumbent printed)\n"
         "  3 infeasible   4 bad usage or malformed input   5 internal\n";
}

[[noreturn]] void usage() {
  print_usage(std::cerr);
  std::exit(4);
}

bool is_help(const std::string& arg) { return arg == "--help" || arg == "-h"; }

const char* status_name(mrlc::dist::RepairStatus status) {
  switch (status) {
    case mrlc::dist::RepairStatus::kHealed: return "healed";
    case mrlc::dist::RepairStatus::kHealedDegraded: return "healed-degraded";
    case mrlc::dist::RepairStatus::kPartitioned: return "partitioned";
  }
  return "?";
}

/// Replays a crash/depletion schedule through the message-level simulator.
int replay_faults(mrlc::wsn::Network& net, const std::string& input,
                  std::map<std::string, std::string>& flags) {
  using namespace mrlc;
  if (!flags.count("lifetime")) usage();
  const double bound = std::stod(flags["lifetime"]);

  std::istringstream schedule_in(input);
  const dist::FailureSchedule schedule = dist::read_fault_schedule(schedule_in);
  if (schedule.empty()) {
    std::cerr << "mrlc_solve: input has no fault-schedule block "
                 "(generate one with mrlc_gen --faults)\n";
    return 4;
  }

  core::IraOptions ira_options;
  ira_options.bound_mode = core::BoundMode::kDirect;
  const core::IraResult ira = core::IterativeRelaxation(ira_options).solve(net, bound);
  std::cerr << "initial tree: reliability " << wsn::tree_reliability(net, ira.tree)
            << ", lifetime " << wsn::network_lifetime(net, ira.tree)
            << " rounds, bound " << (ira.meets_bound ? "met" : "VIOLATED") << '\n';

  dist::MaintainerOptions maintainer_options;
  maintainer_options.allow_lc_relaxation = flags.count("relax") > 0;
  dist::FloodOptions flood;
  flood.lossy = flags.count("lossy") > 0;
  if (flags.count("retx")) flood.control_retx = std::stoi(flags["retx"]);
  if (flags.count("seed")) flood.seed = std::stoull(flags["seed"]);
  dist::ProtocolSimulator sim(net, ira.tree, bound, maintainer_options, flood);

  std::cout << "# fault replay: " << schedule.size() << " scheduled deaths, "
            << (flood.lossy ? "lossy" : "reliable") << " control floods\n";
  for (const dist::FailureEvent& event : schedule.events) {
    std::cout << "t=" << event.time << " node " << event.node << ' '
              << (event.kind == dist::FailureKind::kCrash ? "crash" : "depletion");
    if (!net.node_alive(event.node)) {
      std::cout << ": already dead, skipped\n";
      continue;
    }
    const long long messages_before = sim.stats().control_messages();
    const dist::RepairOutcome outcome = sim.on_node_failed(net, event.node);
    std::cout << ": " << status_name(outcome.status) << ", reattached "
              << outcome.reattached_subtrees << " subtree(s), "
              << outcome.cascade_moves << " cascade move(s), "
              << outcome.detached.size() << " node(s) detached, "
              << (sim.stats().control_messages() - messages_before)
              << " control messages\n";
  }

  const dist::MaintainerStats& stats = sim.maintainer().stats();
  const wsn::AggregationTree& tree = sim.tree();
  std::cout << "summary: " << stats.node_failures << " deaths, "
            << stats.reattachments << " reattachments, " << stats.cascade_moves
            << " cascade moves, " << stats.partitions << " partitioned subtrees, "
            << stats.lc_relaxations << " LC relaxations\n";
  std::cout << "final tree: " << tree.member_count() << '/'
            << net.alive_node_count() << " alive nodes attached, reliability "
            << wsn::tree_reliability(net, tree) << ", lifetime "
            << wsn::network_lifetime(net, tree) << " rounds (bound in force "
            << sim.maintainer().lifetime_bound() << ")\n";
  std::cout << "control plane: " << sim.stats().control_messages()
            << " messages total (" << sim.stats().flood_transmissions
            << " flood, " << sim.stats().digest_beacons << " digest, "
            << sim.stats().resync_requests + sim.stats().resync_responses
            << " resync), replicas "
            << (sim.replicas_consistent() ? "consistent" : "INCONSISTENT") << '\n';
  return 0;
}

/// Runs the closed-loop ARQ data plane (churn -> ARQ -> estimator -> repair).
int run_dataplane_cmd(const mrlc::wsn::Network& net, const std::string& input,
                      std::map<std::string, std::string>& flags) {
  using namespace mrlc;
  if (!flags.count("lifetime")) usage();
  const double bound = std::stod(flags["lifetime"]);

  dist::DataPlaneOptions options;
  // Defaults from an appended `arq`/`channel` config block, if any.
  {
    std::istringstream config_in(input);
    const radio::DataPlaneConfig config = radio::read_dataplane_config(config_in);
    if (config.has_arq) options.arq = config.arq;
    if (config.has_channel) options.channel = config.channel;
  }
  if (flags.count("rounds")) options.rounds = std::stoi(flags["rounds"]);
  if (flags.count("repair")) {
    const std::string& mode = flags["repair"];
    if (mode == "none") {
      options.repair = dist::RepairMode::kNone;
    } else if (mode == "oracle") {
      options.repair = dist::RepairMode::kOracle;
    } else if (mode == "estimator") {
      options.repair = dist::RepairMode::kEstimator;
    } else {
      usage();
    }
  }
  if (flags.count("channel")) {
    const std::string& model = flags["channel"];
    if (model == "bernoulli") {
      options.channel.model = radio::ChannelModel::kBernoulli;
    } else if (model == "gilbert-elliott" || model == "ge") {
      options.channel.model = radio::ChannelModel::kGilbertElliott;
    } else {
      usage();
    }
  }
  if (flags.count("burst")) options.channel.mean_bad_burst = std::stod(flags["burst"]);
  if (flags.count("attempts")) options.arq.max_attempts = std::stoi(flags["attempts"]);
  if (flags.count("ack-fraction")) options.arq.ack_fraction = std::stod(flags["ack-fraction"]);
  if (flags.count("probe")) options.probe_probability = std::stod(flags["probe"]);
  if (flags.count("churn-sigma")) {
    options.churn.cost_noise_sigma = std::stod(flags["churn-sigma"]);
  }
  if (flags.count("seed")) options.seed = std::stoull(flags["seed"]);
  if (flags.count("window-rounds")) {
    options.window_rounds = std::stoi(flags["window-rounds"]);
  }
  if (flags.count("metrics-flush-every")) {
    options.metrics_flush_every = std::stoi(flags["metrics-flush-every"]);
  }
  if (flags.count("metrics-flush-path")) {
    options.metrics_flush_path = flags["metrics-flush-path"];
  }
  mrlc::Budget budget;
  if (flags.count("budget")) {
    budget.set_work_limit(std::stoll(flags["budget"]));
    options.budget = &budget;  // one unit per simulated round
  }
  if (flags.count("deadline-ms")) {
    budget.set_deadline_ms(std::stoll(flags["deadline-ms"]));
    options.budget = &budget;
  }
  options.validate();
  options.arq.validate();
  options.channel.validate();
  options.estimator.validate();

  core::IraOptions ira_options;
  ira_options.bound_mode = core::BoundMode::kDirect;
  const core::IraResult ira = core::IterativeRelaxation(ira_options).solve(net, bound);
  std::cerr << "initial tree: reliability " << wsn::tree_reliability(net, ira.tree)
            << ", lifetime " << wsn::network_lifetime(net, ira.tree)
            << " rounds, bound " << (ira.meets_bound ? "met" : "VIOLATED") << '\n';

  const dist::DataPlaneResult res = run_dataplane(net, ira.tree, bound, options);

  const char* repair_name = options.repair == dist::RepairMode::kNone
                                ? "none"
                                : options.repair == dist::RepairMode::kOracle
                                      ? "oracle"
                                      : "estimator";
  const char* channel_name =
      options.channel.model == radio::ChannelModel::kBernoulli ? "bernoulli"
                                                               : "gilbert-elliott";
  std::cout << "# dataplane: " << res.rounds << " rounds, repair " << repair_name
            << ", channel " << channel_name << '\n';
  std::cout << "delivery ratio        " << res.delivery_ratio << '\n';
  std::cout << "round success ratio   " << res.round_success_ratio << '\n';
  std::cout << "data tx / round       " << res.avg_data_tx_per_round << '\n';
  std::cout << "ack tx / round        " << res.avg_ack_tx_per_round << '\n';
  std::cout << "slots / round         " << res.avg_slots_per_round << '\n';
  std::cout << "duplicates suppressed " << res.duplicates_suppressed << '\n';
  std::cout << "packets dropped       " << res.packets_dropped << '\n';
  std::cout << "joules / reading      " << res.joules_per_reading << '\n';
  std::cout << "measured lifetime     " << res.measured_lifetime_rounds
            << " rounds (bound " << bound << ")\n";
  std::cout << "repairs applied       " << res.repairs_applied << " ("
            << res.degraded_events << " degraded, " << res.improved_events
            << " improved events)\n";
  if (options.repair == dist::RepairMode::kEstimator) {
    std::cout << "estimator             " << res.detections << " detections (lag "
              << res.mean_detection_lag_rounds << " rounds), "
              << res.false_positive_events << " false positives, "
              << res.missed_events << " missed, MAE " << res.estimate_mae << '\n';
  }
  std::cout << "final tree            reliability " << res.final_reliability
            << ", lifetime " << res.final_lifetime << " rounds, bound "
            << (res.bound_met ? "met" : "VIOLATED") << '\n';
  return 0;
}

void report(const mrlc::wsn::Network& net, const mrlc::wsn::AggregationTree& tree,
            const std::string& name) {
  using namespace mrlc;
  std::cerr << name << ": reliability " << wsn::tree_reliability(net, tree)
            << ", cost " << wsn::tree_cost(net, tree) << " (-ln Q)"
            << ", lifetime " << wsn::network_lifetime(net, tree) << " rounds\n";
}

/// Writes the metrics registry to `path`; reports failure on stderr but
/// never turns a successful solve into a nonzero exit.
void emit_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mrlc_solve: cannot open metrics file " << path << '\n';
    return;
  }
  mrlc::metrics::write_json(out);
}

/// Builds the budget token from `--budget` / `--deadline-ms`; returns true
/// when either flag was present (the token is then armed).
bool configure_budget(std::map<std::string, std::string>& flags,
                      mrlc::Budget& budget) {
  bool armed = false;
  if (flags.count("budget")) {
    budget.set_work_limit(std::stoll(flags["budget"]));
    armed = true;
  }
  if (flags.count("deadline-ms")) {
    budget.set_deadline_ms(std::stoll(flags["deadline-ms"]));
    armed = true;
  }
  return armed;
}

int run(const std::string& mode, std::map<std::string, std::string>& flags) {
  using namespace mrlc;
  try {
    // Slurp stdin once: the faults mode re-parses the same text for the
    // appended fault-schedule block.
    std::stringstream stdin_buffer;
    stdin_buffer << std::cin.rdbuf();
    const std::string input = stdin_buffer.str();
    wsn::Network net = wsn::network_from_string(input);
    net.validate();

    if (mode == "faults") {
      return replay_faults(net, input, flags);
    }

    if (mode == "dataplane") {
      return run_dataplane_cmd(net, input, flags);
    }

    if (mode == "probe") {
      const core::LifetimeBracket bracket = core::bracket_max_lifetime(net);
      std::cout << "achievable-lifetime lower bound: " << bracket.lower
                << " rounds (constructive)\n"
                << "LP-certified upper bound:        " << bracket.upper
                << " rounds (" << bracket.probes << " LP probes)\n";
      return 0;
    }

    // An explicit --variant routes ira/auto through the problem-variant
    // front door.  The flag-absent path below is the historical one,
    // byte-for-byte; `--variant mrlc` must agree with it on stdout (the
    // parity gate in scripts/ci.sh compares the two).
    if (flags.count("variant") && (mode == "ira" || mode == "auto")) {
      const std::optional<core::VariantId> variant =
          core::variant_from_string(flags["variant"]);
      if (!variant.has_value()) {
        std::cerr << "mrlc_solve: unknown variant '" << flags["variant"]
                  << "' (expected mrlc, etx, min_energy or max_lifetime)\n";
        return 4;
      }
      if (!flags.count("lifetime")) usage();
      const double bound = std::stod(flags["lifetime"]);
      Budget budget;
      if (configure_budget(flags, budget)) {
        core::AnytimeOptions options;
        options.budget = &budget;
        options.variant = *variant;
        const core::AnytimeResult res = core::solve_anytime(net, bound, options);
        std::cerr << "anytime[" << core::to_string(*variant)
                  << "]: " << core::to_string(res.status) << ": "
                  << res.message << '\n';
        if (res.status == core::AnytimeStatus::kInfeasible) return 3;
        std::cerr << "objective " << res.objective << ", dual bound "
                  << res.dual_bound << ", certified gap " << res.gap
                  << ", budget used " << budget.used() << " work units\n";
        report(net, res.tree, mode);
        wsn::write_tree(std::cout, res.tree);
        return res.status == core::AnytimeStatus::kOptimal ? 0 : 2;
      }
      core::IraOptions options;
      options.bound_mode = flags.count("strict") ? core::BoundMode::kPaperStrict
                                                 : core::BoundMode::kDirect;
      const core::VariantResult res =
          core::solve_variant(*variant, net, bound, options);
      std::cerr << "variant " << core::to_string(res.variant) << ": objective "
                << res.objective << ", bound metric " << res.bound_metric
                << " (bound " << bound << ": "
                << (res.meets_bound ? "met" : "VIOLATED") << ")\n";
      if (*variant == core::VariantId::kMaxLifetime) {
        std::cerr << "LP-certified lifetime upper bound: " << res.internal_bound
                  << " rounds\n";
      }
      std::cerr << "certificate: "
                << core::problem_variant(*variant).certificate() << '\n';
      report(net, res.tree, mode);
      wsn::write_tree(std::cout, res.tree);
      return 0;
    }

    // With a budget or deadline the LP-tier modes run through the anytime
    // layer: typed status, best incumbent on exhaustion, certified gap —
    // and exit code 2 instead of an exception when the budget runs out.
    Budget budget;
    const bool has_budget = configure_budget(flags, budget);
    if (has_budget && (mode == "ira" || mode == "auto")) {
      if (!flags.count("lifetime")) usage();
      if (flags.count("strict")) {
        std::cerr << "mrlc_solve: note: anytime solving always uses the "
                     "direct relaxation; --strict is ignored\n";
      }
      core::AnytimeOptions options;
      options.budget = &budget;
      const core::AnytimeResult res =
          core::solve_anytime(net, std::stod(flags["lifetime"]), options);
      std::cerr << "anytime: " << core::to_string(res.status) << ": "
                << res.message << '\n';
      if (res.status == core::AnytimeStatus::kInfeasible) return 3;
      std::cerr << "dual bound " << res.dual_bound << " nats, certified gap "
                << res.gap << " nats, budget used " << budget.used()
                << " work units\n";
      report(net, res.tree, mode);
      wsn::write_tree(std::cout, res.tree);
      return res.status == core::AnytimeStatus::kOptimal ? 0 : 2;
    }

    wsn::AggregationTree tree;
    if (mode == "auto") {
      if (!flags.count("lifetime")) usage();
      core::SolverOptions options;
      options.certify_with_exact = flags.count("certify") > 0;
      const core::SolveReport rep =
          core::MrlcSolver(options).solve(net, std::stod(flags["lifetime"]));
      tree = rep.result.tree;
      std::cerr << rep.narrative << '\n';
    } else if (mode == "ira" || mode == "greedy") {
      if (!flags.count("lifetime")) usage();
      const double bound = std::stod(flags["lifetime"]);
      if (mode == "ira") {
        core::IraOptions options;
        options.bound_mode = flags.count("strict") ? core::BoundMode::kPaperStrict
                                                   : core::BoundMode::kDirect;
        const core::IraResult res = core::IterativeRelaxation(options).solve(net, bound);
        tree = res.tree;
        std::cerr << "bound " << bound << ": "
                  << (res.meets_bound ? "met" : "VIOLATED (within +2 children/node)")
                  << '\n';
      } else {
        const baselines::GreedyMrlcResult res = baselines::greedy_mrlc(net, bound);
        tree = res.tree;
        std::cerr << "bound " << bound << ": " << (res.meets_bound ? "met" : "VIOLATED")
                  << " (cap relaxations: " << res.cap_relaxations << ")\n";
      }
    } else if (mode == "mst") {
      tree = baselines::mst_baseline(net).tree;
    } else if (mode == "aaml") {
      baselines::AamlOptions options;
      if (flags.count("lex")) {
        options.mode = baselines::AamlSearchMode::kLexicographic;
        options.initial = baselines::AamlInitialTree::kBfs;
      }
      tree = baselines::aaml(net, options).tree;
    } else {
      usage();
    }

    report(net, tree, mode);
    wsn::write_tree(std::cout, tree);
  } catch (const InfeasibleError& e) {
    std::cerr << "infeasible: " << e.what() << '\n';
    return 3;
  } catch (const BudgetExhaustedError& e) {
    // Only reachable from paths that bypass the anytime layer (e.g. a
    // budget on the dataplane's inner IRA); still a typed, documented exit.
    std::cerr << "budget exhausted: " << e.what() << '\n';
    return 2;
  } catch (const std::invalid_argument& e) {
    // Malformed input files, bad flag values, broken preconditions.
    std::cerr << "mrlc_solve: invalid input: " << e.what() << '\n';
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "mrlc_solve: internal error: " << e.what() << '\n';
    return 5;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fault points arm before anything else so even the parser is covered.
  try {
    mrlc::fault::configure_from_env();
  } catch (const std::exception& e) {
    std::cerr << "mrlc_solve: MRLC_FAULTS: " << e.what() << '\n';
    return 4;
  }
  if (argc < 2) usage();
  // Help and unknown modes are settled before `run` reads stdin, so
  // `mrlc_solve --help` never waits on an open terminal.
  const std::string mode = argv[1];
  if (is_help(mode)) {
    print_usage(std::cout);
    return 0;
  }
  if (!known_mode(mode)) usage();

  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (is_help(key)) {
      print_usage(std::cout);
      return 0;
    }
    if (key.rfind("--", 0) != 0) usage();
    key = key.substr(2);
    if (key == "strict" || key == "lex" || key == "certify" || key == "relax" ||
        key == "lossy" || key == "lp-crosscheck") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      usage();
    }
  }

  if (flags.count("inject")) {
    try {
      mrlc::fault::configure(flags["inject"]);
    } catch (const std::exception& e) {
      std::cerr << "mrlc_solve: --inject: " << e.what() << '\n';
      return 4;
    }
  }

  if (flags.count("threads")) {
    try {
      mrlc::set_default_thread_count(
          static_cast<unsigned>(std::stoul(flags["threads"])));
    } catch (const std::exception&) {
      std::cerr << "mrlc_solve: --threads expects a non-negative integer\n";
      return 4;
    }
  }

  if (flags.count("engine")) {
    const std::string& engine = flags["engine"];
    if (engine == "sparse") {
      mrlc::lp::set_default_engine(mrlc::lp::Engine::kSparse);
    } else if (engine == "dense") {
      mrlc::lp::set_default_engine(mrlc::lp::Engine::kDense);
    } else {
      std::cerr << "mrlc_solve: --engine expects sparse or dense\n";
      return 4;
    }
  }
  if (flags.count("lp-crosscheck")) {
    mrlc::lp::set_default_cross_check(true);
  }

  // Eagerly register the solver-status instruments so every mrlc_solve
  // metrics document carries them (zero-valued when unused); library code
  // registers the same keys lazily to keep bench output byte-stable.
  mrlc::metrics::counter("solver.budget_hits");
  mrlc::metrics::counter("faults.injected");
  mrlc::metrics::counter("faults.recovered");
  mrlc::metrics::gauge("solver.status");
  for (const mrlc::core::VariantId id : mrlc::core::all_variants()) {
    mrlc::metrics::counter(std::string("ira.variant_solves.") +
                           mrlc::core::to_string(id));
  }
  mrlc::metrics::gauge("solver.variant");

  const int exit_code = run(mode, flags);
  if (mrlc::fault::injected_count() > 0 || mrlc::fault::recovered_count() > 0) {
    std::cerr << "faults: " << mrlc::fault::injected_count() << " injected, "
              << mrlc::fault::recovered_count() << " recovered\n";
  }
  // The exit code doubles as the machine-readable solver status.
  mrlc::metrics::gauge("solver.status").set(exit_code);
  // Metrics are emitted even when the solve failed: the partial counters
  // (LP solves before an infeasibility, say) are exactly what one wants
  // when diagnosing the failure.
  if (flags.count("metrics-json")) emit_metrics(flags["metrics-json"]);
  return exit_code;
}
