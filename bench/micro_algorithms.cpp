/// \file micro_algorithms.cpp
/// \brief google-benchmark microbenchmarks for every major component:
/// simplex solves, subtour separation, full IRA, baselines, the Prüfer
/// codec, and the packet simulator.  These are engineering benchmarks (no
/// counterpart figure in the paper); they document that the whole pipeline
/// is interactive-speed at the paper's scale and how it scales beyond it.

#include <benchmark/benchmark.h>

#include "baselines/aaml.hpp"
#include "baselines/mst_baseline.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "core/lp_formulation.hpp"
#include "core/separation.hpp"
#include "graph/mst.hpp"
#include "lp/simplex.hpp"
#include "prufer/codec.hpp"
#include "radio/packet_sim.hpp"
#include "scenario/dfl.hpp"
#include "scenario/random_net.hpp"

namespace {

using namespace mrlc;

wsn::Network make_net(int n, std::uint64_t seed) {
  Rng rng(seed);
  scenario::RandomNetworkConfig config;
  config.node_count = n;
  config.link_probability = 0.5;
  config.prr_min = 0.7;
  config.prr_max = 1.0;
  return scenario::make_random_network(config, rng);
}

void BM_IraSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const wsn::Network net = make_net(n, 42);
  const double bound = net.energy_model().node_lifetime(3000.0, 6);
  core::SolveRequest request;
  request.bound = bound;
  request.ira.bound_mode = core::BoundMode::kDirect;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(net, request));
  }
}
BENCHMARK(BM_IraSolve)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_SubtourLpMst(benchmark::State& state) {
  // Cutting-plane subtour LP with no degree caps (integral MST, Lemma 1).
  const int n = static_cast<int>(state.range(0));
  const wsn::Network net = make_net(n, 7);
  for (auto _ : state) {
    core::MrlcLpFormulation formulation(
        net.topology(),
        std::vector<std::optional<double>>(static_cast<std::size_t>(n)));
    benchmark::DoNotOptimize(
        core::solve_with_subtour_cuts(formulation, core::CutLoopOptions{}));
  }
}
BENCHMARK(BM_SubtourLpMst)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_SeparationOracle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const wsn::Network net = make_net(n, 11);
  // A deliberately fractional point: every alive edge at (n-1)/|E|.
  const auto& g = net.topology();
  std::vector<double> x(static_cast<std::size_t>(g.edge_count()),
                        static_cast<double>(n - 1) / g.edge_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_violated_subtours(g, x));
  }
}
BENCHMARK(BM_SeparationOracle)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_Aaml(benchmark::State& state) {
  const wsn::Network net = make_net(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::aaml(net));
  }
}
BENCHMARK(BM_Aaml)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_MstBaseline(benchmark::State& state) {
  const wsn::Network net = make_net(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::mst_baseline(net));
  }
}
BENCHMARK(BM_MstBaseline)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_PruferRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // A path tree keeps the heaps busy (worst-ish case for the codec).
  prufer::ParentArray parent(static_cast<std::size_t>(n));
  parent[0] = -1;
  for (int v = 1; v < n; ++v) parent[static_cast<std::size_t>(v)] = v - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prufer::decode(prufer::encode(parent), n));
  }
}
BENCHMARK(BM_PruferRoundTrip)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_PacketRound(benchmark::State& state) {
  const scenario::DflSystem sys = scenario::make_dfl_system();
  const baselines::MstResult mst = baselines::mst_baseline(sys.network);
  Rng rng(3);
  radio::RetxPolicy retx;
  retx.enabled = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio::simulate_round(sys.network, mst.tree, retx, rng));
  }
}
BENCHMARK(BM_PacketRound)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SimplexDense(benchmark::State& state) {
  // A dense random LP of the size IRA produces at n = 16.
  Rng rng(13);
  lp::Model model;
  const int vars = static_cast<int>(state.range(0));
  for (int v = 0; v < vars; ++v) model.add_variable(rng.uniform(0.1, 2.0), 0.0, 1.0);
  lp::RowId total = model.add_constraint(lp::Relation::kEqual, vars / 3.0);
  for (int v = 0; v < vars; ++v) model.add_term(total, v, 1.0);
  for (int r = 0; r < vars / 2; ++r) {
    lp::RowId row = model.add_constraint(lp::Relation::kLessEqual, 2.0);
    for (int t = 0; t < 6; ++t) {
      model.add_term(row, static_cast<int>(rng.uniform_int(0, vars - 1)), 1.0);
    }
  }
  const lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(model));
  }
}
BENCHMARK(BM_SimplexDense)->Arg(60)->Arg(120)->Arg(240)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
