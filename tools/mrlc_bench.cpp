/// \file mrlc_bench.cpp
/// \brief Machine-readable solver benchmark sweep.
///
/// Runs a fixed set of named workloads (IRA on the DFL testbed and on
/// random G(n, p) instances, branch-and-bound, the ARQ data plane, and a
/// solver-service request mix with deterministic shed/cache behaviour), times
/// each repeat with a steady-clock stopwatch, and snapshots the metrics
/// registry per workload.  Output is one JSON document (schema
/// "mrlc-bench-v1", documented in docs/metrics.md) suitable for diffing
/// across commits with scripts/bench_compare.py.
///
/// Usage:
///   mrlc_bench [--out PATH] [--repeats N] [--workload NAME] [--list]
///              [--no-timings] [--threads N]
///
/// All workloads are seeded, so every counter in the output is
/// bit-reproducible; only the wall-clock figures vary run to run.
/// `--no-timings` zeroes them, making the whole file deterministic (used
/// by the CI golden check).  `--threads` sizes the solver thread pool
/// (default 1 so baselines stay comparable across machines; counters are
/// identical for every thread count, only wall time changes) and is
/// recorded in the output's `config` block so bench_compare.py refuses to
/// compare wall times across different pool widths.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/utsname.h>
#endif

#include "baselines/mst_baseline.hpp"
#include "core/variant.hpp"
#include "common/budget.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/branch_bound.hpp"
#include "core/solve.hpp"
#include "distributed/dataplane.hpp"
#include "lp/simplex.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"
#include "service/server.hpp"
#include "wsn/io.hpp"
#include "wsn/metrics.hpp"

namespace {

using namespace mrlc;

struct Workload {
  std::string name;
  std::string description;
  /// One full repeat; must do all its work through seeded RNGs so the
  /// metric counters are identical across repeats and machines.
  std::function<void(int repeat)> run;
};

/// LC bound every workload uses: the MST's own lifetime.  The MST achieves
/// it by construction, so IRA and branch-and-bound are always feasible and
/// the bench never trips the infeasibility path.
double mst_bound(const wsn::Network& net) {
  return baselines::mst_baseline(net).lifetime;
}

wsn::Network random_net(int nodes, double p, std::uint64_t seed) {
  scenario::RandomNetworkConfig config;
  config.node_count = nodes;
  config.link_probability = p;
  Rng rng(seed);
  return scenario::make_random_network(config, rng);
}

/// A lifetime bound the etx variant can always meet: the bound at which
/// the MST satisfies the *conservative* energy rows the variant's LP
/// enforces (every incident edge charged its worst role), so the LP is
/// integrally feasible by construction and the bench never trips the
/// infeasibility path.
double etx_bound(const wsn::Network& net) {
  const baselines::MstResult mst = baselines::mst_baseline(net);
  std::vector<double> rate(static_cast<std::size_t>(net.node_count()), 0.0);
  for (const graph::EdgeId e : mst.tree.edge_ids()) {
    const graph::Edge& edge = net.topology().edge(e);
    rate[static_cast<std::size_t>(edge.u)] +=
        core::conservative_energy_rate(net, edge.u, e);
    rate[static_cast<std::size_t>(edge.v)] +=
        core::conservative_energy_rate(net, edge.v, e);
  }
  double bound = std::numeric_limits<double>::infinity();
  for (wsn::VertexId v = 0; v < net.node_count(); ++v) {
    if (rate[static_cast<std::size_t>(v)] > 0.0) {
      bound = std::min(bound, net.initial_energy(v) /
                                  rate[static_cast<std::size_t>(v)]);
    }
  }
  return bound;
}

/// One IRA repeat of `variant` at its bound (etx swaps in its
/// conservative-feasible bound), in direct mode, optionally under a fresh
/// anytime work budget (--budget).  With `budget_units == 0` no budget is
/// attached, so `core::solve` runs exactly the engine work.
void run_ira(const wsn::Network& net, core::VariantId variant,
             std::int64_t budget_units) {
  core::SolveRequest request;
  request.variant = variant;
  request.bound =
      variant == core::VariantId::kEtx ? etx_bound(net) : mst_bound(net);
  request.ira.bound_mode = core::BoundMode::kDirect;
  Budget budget;
  if (budget_units > 0) {
    budget.set_work_limit(budget_units);
    request.ira.budget = &budget;
  }
  core::solve(net, request);
}

/// Solver-service throughput workload: 32 requests over 4 topologies with
/// repeats (warm-cache hits), enqueued against a deliberately undersized
/// queue before the dispatcher starts, so exactly 8 are shed inline and the
/// remaining 24 run in a fixed batch pattern.  Everything that matters —
/// shed count, cache hits/misses, per-status counters — lands in the
/// `service.*` metrics snapshot; bench_compare.py derives queries/sec and
/// reads the p99 latency histogram from there.  The qps gauge and the
/// latency histograms are wall-clock figures and only exist when timings
/// are on, keeping `--no-timings` output bit-reproducible.
void run_service_mixed(int repeat, bool with_timings) {
  service::ServiceOptions options;
  options.queue_capacity = 24;  // 32 submissions -> 8 deterministic sheds
  options.batch_size = 4;      // pin batch composition across --threads
  options.cache_capacity = 8;
  options.record_timings = with_timings;
  options.auto_start = false;  // enqueue the whole workload, then start
  service::SolverService service(options);

  std::vector<std::string> texts;
  std::vector<double> bounds;
  for (int t = 0; t < 4; ++t) {
    const wsn::Network net = random_net(
        16, 0.6, 6000 + static_cast<std::uint64_t>(4 * repeat + t));
    texts.push_back(wsn::network_to_string(net));
    bounds.push_back(mst_bound(net));
  }
  for (int i = 0; i < 32; ++i) {
    service::WireRequest request;
    request.id = "bench-" + std::to_string(i);
    request.lifetime = bounds[static_cast<std::size_t>(i % 4)];
    request.network_text = texts[static_cast<std::size_t>(i % 4)];
    service.submit(std::move(request),
                   [](const service::WireResponse&) {});
  }

  const trace::Stopwatch watch;
  service.start();
  service.drain();
  if (with_timings) {
    const double secs = std::max(watch.elapsed_ms() / 1000.0, 1e-9);
    metrics::gauge("service.bench_qps").set(24.0 / secs);
  }
}

std::vector<Workload> make_workloads(std::int64_t budget_units,
                                     bool with_timings,
                                     core::VariantId variant) {
  std::vector<Workload> out;

  out.push_back({"ira_dfl_n16", "IRA on the 16-node DFL testbed instance",
                 [budget_units, variant](int) {
                   const wsn::Network net = scenario::make_dfl_system().network;
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"ira_random_n16_p07",
                 "IRA on G(16, 0.7) instances, one fresh draw per repeat",
                 [budget_units, variant](int repeat) {
                   const wsn::Network net = random_net(
                       16, 0.7, 1000 + static_cast<std::uint64_t>(repeat));
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"ira_random_n24_p04",
                 "IRA on sparser G(24, 0.4) instances (more cut rounds)",
                 [budget_units, variant](int repeat) {
                   const wsn::Network net = random_net(
                       24, 0.4, 2000 + static_cast<std::uint64_t>(repeat));
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"ira_random_n48_p04",
                 "IRA on G(48, 0.4) instances — the warm-start stress case "
                 "(many cut rounds over a large LP)",
                 [budget_units, variant](int repeat) {
                   const wsn::Network net = random_net(
                       48, 0.4, 5000 + static_cast<std::uint64_t>(repeat));
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"ira_random_n128_p015",
                 "IRA on G(128, 0.15) — the sparse-LP scale case (hundreds "
                 "of edge variables; dense tableau for A/B via --engine)",
                 [budget_units, variant](int repeat) {
                   const wsn::Network net = random_net(
                       128, 0.15, 7000 + static_cast<std::uint64_t>(repeat));
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"ira_dfl_n32",
                 "IRA on a 32-node DFL perimeter (7.2 m square, same tripod "
                 "spacing) — longer-range fractional cycles than n16",
                 [budget_units, variant](int) {
                   scenario::DflConfig config;
                   config.side_m = 7.2;  // 32 tripods at the default 0.9 m
                   const wsn::Network net =
                       scenario::make_dfl_system(config).network;
                   run_ira(net, variant, budget_units);
                 }});

  out.push_back({"bb_random_n14", "exact branch-and-bound on G(14, 0.5)",
                 [](int repeat) {
                   const wsn::Network net = random_net(
                       14, 0.5, 3000 + static_cast<std::uint64_t>(repeat));
                   core::branch_bound_variant(core::VariantId::kMrlc, net,
                                              mst_bound(net));
                 }});

  out.push_back({"etx_random_n48",
                 "etx variant (min expected ARQ transmissions under "
                 "conservative energy rows) on G(48, 0.4) instances",
                 [](int repeat) {
                   const wsn::Network net = random_net(
                       48, 0.4, 8000 + static_cast<std::uint64_t>(repeat));
                   core::SolveRequest request;
                   request.variant = core::VariantId::kEtx;
                   request.bound = etx_bound(net);
                   core::solve(net, request);
                 }});

  out.push_back({"minenergy_n32",
                 "min-energy aggregation tree (one certified Subtour-LP "
                 "round) on G(32, 0.4) instances",
                 [](int repeat) {
                   const wsn::Network net = random_net(
                       32, 0.4, 9000 + static_cast<std::uint64_t>(repeat));
                   core::SolveRequest request;
                   request.variant = core::VariantId::kMinEnergy;
                   request.bound = mst_bound(net);
                   core::solve(net, request);
                 }});

  out.push_back({"dataplane_n16",
                 "200 ARQ convergecast rounds with estimator-driven repair",
                 [](int repeat) {
                   const wsn::Network net = scenario::make_dfl_system().network;
                   const double bound = mst_bound(net);
                   core::SolveRequest request;
                   request.bound = bound;
                   request.ira.bound_mode = core::BoundMode::kDirect;
                   const core::SolveResult ira = core::solve(net, request);
                   dist::DataPlaneOptions options;
                   options.rounds = 200;
                   options.seed = 4000 + static_cast<std::uint64_t>(repeat);
                   dist::run_dataplane(net, ira.tree, bound, options);
                 }});

  out.push_back({"dataplane_des_n100k",
                 "20 estimator-repair convergecast rounds on a 400x250 grid "
                 "(100k nodes, BFS initial tree)",
                 [](int repeat) {
                   scenario::GridNetworkConfig config;
                   config.rows = 400;
                   config.cols = 250;
                   Rng rng(11000 + static_cast<std::uint64_t>(repeat));
                   const wsn::Network net =
                       scenario::make_grid_network(config, rng);
                   const wsn::AggregationTree tree =
                       scenario::bfs_spanning_tree(net);
                   const double bound =
                       0.5 * wsn::network_lifetime(net, tree);
                   dist::DataPlaneOptions options;
                   options.rounds = 20;
                   options.seed = 11000 + static_cast<std::uint64_t>(repeat);
                   dist::run_dataplane(net, tree, bound, options);
                 }});

  out.push_back({"service_mixed_n16",
                 "solver service: 32 requests over 4 G(16, 0.6) topologies "
                 "with repeats (warm cache), deterministic shed, batch 4",
                 [with_timings](int repeat) {
                   run_service_mixed(repeat, with_timings);
                 }});

  return out;
}

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string git_revision() {
#ifndef _WIN32
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64] = {};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, pipe);
    ::pclose(pipe);
    std::string rev(buf, got);
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
      rev.pop_back();
    }
    if (!rev.empty()) return rev;
  }
#endif
  return "unknown";
}

std::string machine_system() {
#ifndef _WIN32
  struct utsname info {};
  if (::uname(&info) == 0) {
    return std::string(info.sysname) + " " + info.release + " " + info.machine;
  }
#endif
  return "unknown";
}

/// Re-indents an embedded JSON document so it nests readably.
std::string indent_block(const std::string& json, const std::string& pad) {
  std::string out;
  for (char c : json) {
    out += c;
    if (c == '\n') out += pad;
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) out.pop_back();
  return out;
}

[[noreturn]] void usage() {
  std::cerr << "usage: mrlc_bench [--out PATH] [--repeats N] [--workload NAME]\n"
               "                  [--list] [--no-timings] [--threads N]\n"
               "                  [--budget UNITS] [--engine sparse|dense]\n"
               "                  [--variant NAME]\n"
               "  --budget UNITS  run the IRA workloads through the anytime\n"
               "                  solver with a fresh work budget per repeat\n"
               "                  (0 = unlimited, the classic direct path)\n"
               "  --engine NAME   LP engine for every workload (default\n"
               "                  sparse; dense is the historical tableau,\n"
               "                  kept for A/B comparison)\n"
               "  --variant NAME  problem variant for the ira_* workloads\n"
               "                  (mrlc | etx | min_energy | max_lifetime;\n"
               "                  default mrlc = the historical path);\n"
               "                  recorded in config.variant so\n"
               "                  bench_compare.py groups runs by variant\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_solver.json";
  int repeats = 3;
  std::string only;
  bool list_only = false;
  bool with_timings = true;
  // Default 1 (not hardware concurrency): bench baselines checked into the
  // repo must mean the same thing on every machine.
  unsigned threads = 1;
  std::int64_t budget_units = 0;
  std::string engine = "sparse";
  std::string variant_name = "mrlc";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--no-timings") {
      with_timings = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::stoi(argv[++i]);
      if (repeats < 1) usage();
    } else if (arg == "--workload" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--budget" && i + 1 < argc) {
      budget_units = std::stoll(argv[++i]);
      if (budget_units < 0) usage();
    } else if (arg == "--engine" && i + 1 < argc) {
      engine = argv[++i];
      if (engine != "sparse" && engine != "dense") usage();
    } else if (arg == "--variant" && i + 1 < argc) {
      variant_name = argv[++i];
      if (!mrlc::core::variant_from_string(variant_name).has_value()) usage();
    } else {
      usage();
    }
  }
  mrlc::set_default_thread_count(threads);
  mrlc::lp::set_default_engine(engine == "dense" ? mrlc::lp::Engine::kDense
                                                 : mrlc::lp::Engine::kSparse);
  const mrlc::core::VariantId variant =
      *mrlc::core::variant_from_string(variant_name);

  const std::vector<Workload> workloads =
      make_workloads(budget_units, with_timings, variant);
  if (list_only) {
    for (const Workload& w : workloads) {
      std::cout << w.name << "  " << w.description << '\n';
    }
    return 0;
  }
  if (!only.empty() &&
      std::none_of(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return w.name == only; })) {
    std::cerr << "mrlc_bench: unknown workload " << only << " (see --list)\n";
    return 2;
  }

  metrics::set_enabled(true);

  std::ostringstream body;
  bool first = true;
  for (const Workload& w : workloads) {
    if (!only.empty() && w.name != only) continue;
    std::cerr << "bench " << w.name << " (" << repeats << " repeats)...\n";
    metrics::reset();

    double min_ms = std::numeric_limits<double>::infinity();
    double max_ms = 0.0;
    double total_ms = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const trace::Stopwatch watch;
      w.run(r);
      const double ms = watch.elapsed_ms();
      min_ms = std::min(min_ms, ms);
      max_ms = std::max(max_ms, ms);
      total_ms += ms;
    }
    if (!with_timings) min_ms = max_ms = total_ms = 0.0;

    body << (first ? "" : ",\n");
    first = false;
    body << "    {\n";
    body << "      \"name\": " << json_escape(w.name) << ",\n";
    body << "      \"description\": " << json_escape(w.description) << ",\n";
    body << "      \"repeats\": " << repeats << ",\n";
    body.precision(6);
    body << "      \"wall_ms\": {\"min\": " << min_ms
         << ", \"mean\": " << total_ms / repeats << ", \"max\": " << max_ms
         << ", \"total\": " << total_ms << "},\n";
    // The per-workload metrics snapshot is a full mrlc-metrics-v1 document
    // (counters are summed over all repeats; phase times are wall time).
    const std::string snapshot = metrics::to_json_string(!with_timings);
    body << "      \"metrics\": " << indent_block(snapshot, "      ") << "\n";
    body << "    }";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "mrlc_bench: cannot open " << out_path << '\n';
    return 1;
  }
  out << "{\n";
  out << "  \"schema\": \"mrlc-bench-v1\",\n";
  out << "  \"git_rev\": " << json_escape(git_revision()) << ",\n";
  out << "  \"machine\": {\"system\": " << json_escape(machine_system())
      << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "},\n";
  out << "  \"config\": {\"repeats\": " << repeats << ", \"timings\": "
      << (with_timings ? "true" : "false")
      << ", \"threads\": " << mrlc::default_thread_count()
      << ", \"budget\": " << budget_units
      << ", \"engine\": " << json_escape(engine)
      << ", \"variant\": " << json_escape(variant_name) << "},\n";
  out << "  \"workloads\": [\n" << body.str() << "\n  ]\n";
  out << "}\n";
  std::cerr << "wrote " << out_path << '\n';
  return 0;
}
