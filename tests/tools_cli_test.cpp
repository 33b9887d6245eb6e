/// \file tools_cli_test.cpp
/// \brief End-to-end tests of the command-line tools: mrlc_gen piped into
/// mrlc_solve, the --metrics-json contract (parseable JSON containing every
/// key listed in tests/data/metrics_keys.golden, with nonzero core
/// counters), and the mrlc_bench sweep in deterministic mode.
///
/// The tool binary paths arrive as compile definitions
/// (MRLC_TOOL_GEN/MRLC_TOOL_SOLVE/MRLC_TOOL_BENCH), so the test always
/// exercises the binaries built alongside it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

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

// ------------------------------------------------------------ JSON parser --
//
// Minimal recursive-descent JSON reader: just enough to validate
// well-formedness and pull out object keys and numeric values.  No JSON
// library ships with the toolchain, and the metrics emitter is exactly the
// kind of hand-rolled printer that deserves an independent parse.

struct JsonParser {
  const std::string& text;
  std::size_t at = 0;
  bool ok = true;
  /// Flattened "a.b.c" key -> raw value token for numbers/strings/bools.
  std::map<std::string, std::string> scalars;
  std::vector<std::string> keys;  ///< every object key seen, bare

  explicit JsonParser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\n' ||
                                text[at] == '\t' || text[at] == '\r')) {
      ++at;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at < text.size() && text[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    skip_ws();
    std::string out;
    if (at >= text.size() || text[at] != '"') {
      ok = false;
      return out;
    }
    ++at;
    while (at < text.size() && text[at] != '"') {
      if (text[at] == '\\' && at + 1 < text.size()) ++at;
      out += text[at++];
    }
    if (at >= text.size()) {
      ok = false;
      return out;
    }
    ++at;  // closing quote
    return out;
  }

  void parse_value(const std::string& prefix) {
    skip_ws();
    if (at >= text.size()) {
      ok = false;
      return;
    }
    const char c = text[at];
    if (c == '{') {
      ++at;
      skip_ws();
      if (consume('}')) return;
      do {
        const std::string key = parse_string();
        if (!ok || !consume(':')) {
          ok = false;
          return;
        }
        keys.push_back(key);
        parse_value(prefix.empty() ? key : prefix + "." + key);
        if (!ok) return;
      } while (consume(','));
      if (!consume('}')) ok = false;
    } else if (c == '[') {
      ++at;
      skip_ws();
      if (consume(']')) return;
      int index = 0;
      do {
        parse_value(prefix + "[" + std::to_string(index++) + "]");
        if (!ok) return;
      } while (consume(','));
      if (!consume(']')) ok = false;
    } else if (c == '"') {
      scalars[prefix] = parse_string();
    } else {
      std::string token;
      while (at < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[at])) != 0 ||
              text[at] == '-' || text[at] == '+' || text[at] == '.')) {
        token += text[at++];
      }
      if (token.empty()) {
        ok = false;
        return;
      }
      scalars[prefix] = token;
    }
  }

  bool parse() {
    parse_value("");
    skip_ws();
    return ok && at == text.size();
  }
};

/// Generates a 16-node network once and reuses it across tests.  The path
/// is per-process: gtest_discover_tests runs every TEST as its own process,
/// potentially in parallel, and concurrent regenerations of one shared
/// file race (one process truncates while another reads).
const std::string& network_path() {
  static const std::string path = [] {
    const std::string p =
        tmp_path("tools_cli_net_" + std::to_string(::getpid()) + ".txt");
    const int rc = run_command(std::string(MRLC_TOOL_GEN) +
                               " dfl --nodes 16 --seed 7 > " + p);
    EXPECT_EQ(rc, 0) << "mrlc_gen failed";
    return p;
  }();
  return path;
}

TEST(ToolsCli, GenPipesIntoSolve) {
  const std::string tree = tmp_path("tools_cli_tree.txt");
  const int rc = run_command(std::string(MRLC_TOOL_SOLVE) +
                             " mst < " + network_path() + " > " + tree +
                             " 2> /dev/null");
  ASSERT_EQ(rc, 0);
  EXPECT_NE(read_file(tree).find("tree"), std::string::npos);
}

TEST(ToolsCli, MetricsJsonParsesAndHasDocumentedKeys) {
  const std::string metrics_path = tmp_path("tools_cli_metrics.json");
  const int rc = run_command(std::string(MRLC_TOOL_SOLVE) +
                             " ira --lifetime 100 --metrics-json " +
                             metrics_path + " < " + network_path() +
                             " > /dev/null 2> /dev/null");
  ASSERT_EQ(rc, 0);

  const std::string json = read_file(metrics_path);
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse()) << "metrics JSON failed to parse near byte "
                              << parser.at << ":\n"
                              << json;

  EXPECT_EQ(parser.scalars["schema"], "mrlc-metrics-v1");

  // Every key the documentation promises must be present.
  std::ifstream golden(MRLC_METRICS_GOLDEN);
  ASSERT_TRUE(golden.is_open()) << "cannot open " << MRLC_METRICS_GOLDEN;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(std::find(parser.keys.begin(), parser.keys.end(), line),
              parser.keys.end())
        << "documented key missing from metrics JSON: " << line;
  }

  // The acceptance bar: a real solve records real work.
  EXPECT_GT(std::stoll(parser.scalars["counters.ira.outer_iterations"]), 0);
  EXPECT_GT(std::stoll(parser.scalars["counters.simplex.pivots"]), 0);
  EXPECT_GT(std::stoll(parser.scalars["counters.separation.calls"]), 0);
}

TEST(ToolsCli, DataplaneMetricsJsonHasDocumentedKeys) {
  const std::string metrics_path = tmp_path("tools_cli_dataplane_metrics.json");
  const int rc = run_command(std::string(MRLC_TOOL_SOLVE) +
                             " dataplane --lifetime 100 --rounds 40"
                             " --repair estimator --metrics-json " +
                             metrics_path + " < " + network_path() +
                             " > /dev/null 2> /dev/null");
  ASSERT_EQ(rc, 0);

  const std::string json = read_file(metrics_path);
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse()) << "metrics JSON failed to parse near byte "
                              << parser.at << ":\n"
                              << json;

  std::ifstream golden(MRLC_DATAPLANE_METRICS_GOLDEN);
  ASSERT_TRUE(golden.is_open()) << "cannot open "
                                << MRLC_DATAPLANE_METRICS_GOLDEN;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(std::find(parser.keys.begin(), parser.keys.end(), line),
              parser.keys.end())
        << "documented key missing from dataplane metrics JSON: " << line;
  }

  // A real run retires one event per node per round on the default
  // (event-driven) engine.
  EXPECT_GT(std::stoll(parser.scalars["counters.dataplane.events_processed"]),
            0);
  EXPECT_GT(std::stoll(parser.scalars["counters.des.windows"]), 0);
}

TEST(ToolsCli, MetricsDisabledByEnvironment) {
  const std::string metrics_path = tmp_path("tools_cli_metrics_off.json");
  const int rc = run_command("MRLC_METRICS=0 " + std::string(MRLC_TOOL_SOLVE) +
                             " ira --lifetime 100 --metrics-json " +
                             metrics_path + " < " + network_path() +
                             " > /dev/null 2> /dev/null");
  ASSERT_EQ(rc, 0);
  const std::string json = read_file(metrics_path);
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse());
  EXPECT_EQ(parser.scalars["enabled"], "false");
  // Counters may be registered but must have recorded nothing.
  const auto it = parser.scalars.find("counters.ira.outer_iterations");
  if (it != parser.scalars.end()) EXPECT_EQ(std::stoll(it->second), 0);
}

TEST(ToolsCli, BenchDeterministicModeIsReproducible) {
  const std::string first = tmp_path("tools_cli_bench1.json");
  const std::string second = tmp_path("tools_cli_bench2.json");
  const std::string base_cmd = std::string(MRLC_TOOL_BENCH) +
                               " --repeats 1 --no-timings --workload "
                               "ira_dfl_n16 --out ";
  ASSERT_EQ(run_command(base_cmd + first + " 2> /dev/null"), 0);
  ASSERT_EQ(run_command(base_cmd + second + " 2> /dev/null"), 0);
  EXPECT_EQ(read_file(first), read_file(second));

  const std::string json = read_file(first);
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse()) << json;
  EXPECT_EQ(parser.scalars["schema"], "mrlc-bench-v1");
  EXPECT_EQ(parser.scalars["workloads[0].name"], "ira_dfl_n16");
  EXPECT_GT(
      std::stoll(parser.scalars["workloads[0].metrics.counters.ira.solves"]),
      0);
}

// ------------------------------------------------------ exit-code contract --
//
// mrlc_solve documents: 0 solved, 2 feasible-budget-exhausted (incumbent
// printed), 3 infeasible, 4 bad usage / malformed input, 5 internal error.

TEST(ToolsCli, UsageAndBadFlagsExitFour) {
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " no-such-mode < " + network_path() +
                        " > /dev/null 2> /dev/null"),
            4);
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime < " + network_path() +
                        " > /dev/null 2> /dev/null"),
            4)
      << "flag with missing value";
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --threads banana < " +
                        network_path() + " > /dev/null 2> /dev/null"),
            4);
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --inject no.such_fault < " +
                        network_path() + " > /dev/null 2> /dev/null"),
            4);
  EXPECT_EQ(run_command("MRLC_FAULTS=no.such_fault " +
                        std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 < " + network_path() +
                        " > /dev/null 2> /dev/null"),
            4);
}

TEST(ToolsCli, HelpAndUnknownModeNeverReadStdin) {
  // Both are settled before the network is read: with stdin at EOF a
  // solve mode would fail to parse, so these exit codes and texts can
  // only come from the argument check.
  const std::string out = tmp_path("mrlc_solve_help.out");
  const std::string err = tmp_path("mrlc_solve_help.err");
  for (const char* flag : {"--help", "-h", "ira --help"}) {
    EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) + " " + flag +
                          " < /dev/null > " + out + " 2> " + err),
              0)
        << flag;
    const std::string text = read_file(out);
    EXPECT_NE(text.find("usage:"), std::string::npos) << flag;
    EXPECT_TRUE(read_file(err).empty()) << flag;
    // --threads N's description reads in one piece.
    EXPECT_NE(text.find("  --threads N           worker threads for the parallel solver\n"
                        "                        core (0 = hardware concurrency); the\n"
                        "                        tree and counters are identical for\n"
                        "                        every N\n"),
              std::string::npos)
        << text;
  }
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) + " bogus < /dev/null > " +
                        out + " 2> " + err),
            4);
  EXPECT_TRUE(read_file(out).empty());
  const std::string usage = read_file(err);
  EXPECT_EQ(usage.rfind("usage:", 0), 0u) << usage;
  EXPECT_NE(usage.find("--threads N"), std::string::npos);
}

TEST(ToolsCli, CorruptCorpusExitsFour) {
  // Every file in the malformed-input corpus must die with the documented
  // parse/validation exit code — not a crash, not a tree.
  const char* kCorpus[] = {"energy_negative.net", "prr_zero.net",
                           "prr_above_one.net",   "truncated.net",
                           "bad_keyword.net",     "sink_out_of_range.net"};
  for (const char* name : kCorpus) {
    const std::string path = std::string(MRLC_CORRUPT_DIR) + "/" + name;
    EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) + " mst < " + path +
                          " > /dev/null 2> /dev/null"),
              4)
        << name;
  }
}

TEST(ToolsCli, InfeasibleBoundExitsThree) {
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 1000000000 < " + network_path() +
                        " > /dev/null 2> /dev/null"),
            3);
}

TEST(ToolsCli, BudgetExhaustionExitsTwoWithDeterministicIncumbent) {
  // A tiny work budget forces the anytime path: exit 2, a valid incumbent
  // tree on stdout, and — the determinism contract — byte-identical output
  // for every thread count.
  const std::string serial = tmp_path("tools_cli_budget_t1.txt");
  const std::string wide = tmp_path("tools_cli_budget_t8.txt");
  const std::string base_cmd = std::string(MRLC_TOOL_SOLVE) +
                               " ira --lifetime 100 --budget 5 < " +
                               network_path();
  EXPECT_EQ(run_command(base_cmd + " --threads 1 > " + serial +
                        " 2> /dev/null"),
            2);
  EXPECT_EQ(run_command(base_cmd + " --threads 8 > " + wide +
                        " 2> /dev/null"),
            2);
  const std::string tree = read_file(serial);
  EXPECT_NE(tree.find("mrlc-tree"), std::string::npos);
  EXPECT_EQ(tree, read_file(wide));
}

TEST(ToolsCli, UnlimitedBudgetStillExitsZero) {
  // A generous budget must not change the happy path's exit code.
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --budget 100000000 < " +
                        network_path() + " > /dev/null 2> /dev/null"),
            0);
}

TEST(ToolsCli, ZeroBudgetIsHardZeroNotUnlimited) {
  // Regression: `--budget 0` once slipped one LP solve through before the
  // first charge noticed.  Zero must mean zero — the seeded incumbent
  // comes back (exit 2) with literally no work charged.
  const std::string out = tmp_path("tools_cli_budget0_tree.txt");
  const std::string err = tmp_path("tools_cli_budget0_err.txt");
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --budget 0 < " + network_path() +
                        " > " + out + " 2> " + err),
            2);
  EXPECT_NE(read_file(out).find("mrlc-tree"), std::string::npos);
  EXPECT_NE(read_file(err).find("budget used 0 work units"),
            std::string::npos);
}

TEST(ToolsCli, ZeroDeadlineIsHardZeroNotUnlimited) {
  // Same contract for `--deadline-ms 0`: already expired, so the anytime
  // layer returns the incumbent before the first clock-poll stride runs
  // 64 units of LP work.
  const std::string out = tmp_path("tools_cli_deadline0_tree.txt");
  const std::string err = tmp_path("tools_cli_deadline0_err.txt");
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --deadline-ms 0 < " +
                        network_path() + " > " + out + " 2> " + err),
            2);
  EXPECT_NE(read_file(out).find("mrlc-tree"), std::string::npos);
  EXPECT_NE(read_file(err).find("budget used 0 work units"),
            std::string::npos);
}

TEST(ToolsCli, InjectedRecoverableFaultsReproduceTheCleanTree) {
  const std::string clean = tmp_path("tools_cli_fault_clean.txt");
  ASSERT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 < " + network_path() + " > " +
                        clean + " 2> /dev/null"),
            0);
  const std::string clean_tree = read_file(clean);
  for (const char* name : {"lp.force_cold", "lp.drop_basis",
                           "cutpool.corrupt", "separation.flow_fail"}) {
    const std::string out = tmp_path(std::string("tools_cli_fault_") + name);
    EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                          " ira --lifetime 100 --inject " + name + " < " +
                          network_path() + " > " + out + " 2> /dev/null"),
              0)
        << name;
    EXPECT_EQ(read_file(out), clean_tree) << name;
  }
}

TEST(ToolsCli, InjectedTaskFailureExitsFive) {
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 --inject parallel.task_fail < " +
                        network_path() + " > /dev/null 2> /dev/null"),
            5);
}

TEST(ToolsCli, BenchCountersIdenticalAcrossThreadCounts) {
  // The PR 4/5 determinism invariant, end to end: every counter in the
  // bench output — pivots, cuts, max-flow calls, pool hits — is a pure
  // function of the workload, never of the pool width.  Only the recorded
  // `config.threads` field may differ.
  const std::string serial = tmp_path("tools_cli_bench_t1.json");
  const std::string wide = tmp_path("tools_cli_bench_t8.json");
  const std::string base_cmd = std::string(MRLC_TOOL_BENCH) +
                               " --repeats 1 --no-timings --workload "
                               "ira_dfl_n16 --out ";
  ASSERT_EQ(run_command(base_cmd + serial + " --threads 1 2> /dev/null"), 0);
  ASSERT_EQ(run_command(base_cmd + wide + " --threads 8 2> /dev/null"), 0);

  const auto strip_config_threads = [](std::string text) {
    std::istringstream in(text);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"config\"") == std::string::npos) {
        out += line;
        out += '\n';
      }
    }
    return out;
  };
  EXPECT_EQ(strip_config_threads(read_file(serial)),
            strip_config_threads(read_file(wide)));

  // The warm-start counters made it into the snapshot, and no solve on a
  // stock workload ever abandoned its warm basis.
  const std::string wide_json = read_file(wide);
  JsonParser parser(wide_json);
  ASSERT_TRUE(parser.parse()) << wide_json;
  EXPECT_GT(std::stoll(
                parser.scalars["workloads[0].metrics.counters.simplex.warm_solves"]),
            0);
  EXPECT_EQ(std::stoll(parser.scalars
                           ["workloads[0].metrics.counters.simplex.cold_fallbacks"]),
            0);
}

// --------------------------------------------------------- variant flags --

TEST(ToolsCli, SolveIraAndVariantMrlcAreByteIdenticalOnStdout) {
  // The tentpole parity contract, end to end through the CLI: the historic
  // `ira` mode and the variant front door with --variant mrlc must emit the
  // same tree bytes (stderr narrates differently; stdout may not).
  const std::string legacy = tmp_path("tools_cli_variant_legacy.txt");
  const std::string routed = tmp_path("tools_cli_variant_routed.txt");
  ASSERT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --lifetime 100 < " + network_path() + " > " +
                        legacy + " 2> /dev/null"),
            0);
  ASSERT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --variant mrlc --lifetime 100 < " +
                        network_path() + " > " + routed + " 2> /dev/null"),
            0);
  EXPECT_EQ(read_file(legacy), read_file(routed));
}

TEST(ToolsCli, SolveAcceptsEveryVariantAndRejectsUnknownOnes) {
  for (const char* name : {"etx", "min_energy", "max_lifetime"}) {
    EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                          " ira --variant " + name + " --lifetime 1 < " +
                          network_path() + " > /dev/null 2> /dev/null"),
              0)
        << name;
  }
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) +
                        " ira --variant bogus --lifetime 100 < " +
                        network_path() + " > /dev/null 2> /dev/null"),
            4);
}

TEST(ToolsCli, EveryVariantEmitsItsOwnSolveCounterAndGauge) {
  // mrlc_solve eagerly registers the whole ira.variant_solves.* family, so
  // every metrics document carries every key (the golden test pins that);
  // here each run must additionally have bumped *its own* counter and set
  // the solver.variant gauge to its ordinal.
  const char* kVariants[] = {"mrlc", "etx", "min_energy", "max_lifetime"};
  for (int ordinal = 0; ordinal < 4; ++ordinal) {
    const std::string name = kVariants[ordinal];
    const std::string metrics_path =
        tmp_path("tools_cli_variant_metrics_" + name + ".json");
    ASSERT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) + " ira --variant " +
                          name + " --lifetime 1 --metrics-json " +
                          metrics_path + " < " + network_path() +
                          " > /dev/null 2> /dev/null"),
              0)
        << name;
    const std::string json = read_file(metrics_path);
    JsonParser parser(json);
    ASSERT_TRUE(parser.parse()) << name;
    EXPECT_EQ(
        std::stoll(parser.scalars["counters.ira.variant_solves." + name]), 1)
        << name;
    for (const char* other : kVariants) {
      if (name == other) continue;
      EXPECT_EQ(std::stoll(
                    parser.scalars[std::string("counters.ira.variant_solves.") +
                                   other]),
                0)
          << name << " bled into " << other;
    }
    EXPECT_EQ(std::stoll(parser.scalars["gauges.solver.variant"]), ordinal)
        << name;
  }
}

TEST(ToolsCli, GenExpectedCostAnnotationIsDeterministicAndStaysParseable) {
  const std::string first = tmp_path("tools_cli_annot1.txt");
  const std::string second = tmp_path("tools_cli_annot2.txt");
  const std::string gen_cmd =
      std::string(MRLC_TOOL_GEN) +
      " random --nodes 12 --seed 3 --annotate-cost 100 --variant etx > ";
  ASSERT_EQ(run_command(gen_cmd + first + " 2> /dev/null"), 0);
  ASSERT_EQ(run_command(gen_cmd + second + " 2> /dev/null"), 0);
  // Generator and solver are pinned together: same seed, same annotation.
  EXPECT_EQ(read_file(first), read_file(second));
  EXPECT_NE(read_file(first).find("# expected-cost variant=etx lifetime=100 "
                                  "objective="),
            std::string::npos);
  // The annotation is a comment, so the file still solves downstream.
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_SOLVE) + " mst < " + first +
                        " > /dev/null 2> /dev/null"),
            0);
  // --variant is meaningless without --annotate-cost: usage error.
  EXPECT_EQ(run_command(std::string(MRLC_TOOL_GEN) +
                        " random --nodes 12 --seed 3 --variant etx "
                        "> /dev/null 2> /dev/null"),
            2);
}

}  // namespace
