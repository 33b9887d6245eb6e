#include "core/feasibility.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "baselines/aaml.hpp"
#include "core/lp_formulation.hpp"
#include "graph/traversal.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {

bool lp_lifetime_feasible(const wsn::Network& net, double bound,
                          const IraOptions& options) {
  MRLC_REQUIRE(bound > 0.0, "lifetime bound must be positive");
  net.validate();
  const std::vector<bool> all(static_cast<std::size_t>(net.node_count()), true);
  MrlcLpFormulation formulation(net.topology(),
                                lifetime_degree_caps(net, all, bound));
  CutLoopOptions cut_options;
  cut_options.simplex = options.simplex;
  cut_options.max_rounds = options.max_cut_rounds;
  cut_options.warm_start = options.warm_start;
  const CutLpResult result = solve_with_subtour_cuts(formulation, cut_options);
  if (result.status == lp::SolveStatus::kIterationLimit) {
    throw NotConvergedError("LP feasibility probe did not converge");
  }
  return result.status == lp::SolveStatus::kOptimal;
}

double achievable_lifetime_lower_bound(const wsn::Network& net) {
  net.validate();
  baselines::AamlOptions options;
  options.mode = baselines::AamlSearchMode::kLexicographic;
  options.initial = baselines::AamlInitialTree::kBfs;
  return baselines::aaml(net, options).lifetime;
}

LifetimeBracket bracket_max_lifetime(const wsn::Network& net,
                                     double relative_tolerance,
                                     const IraOptions& options) {
  MRLC_REQUIRE(relative_tolerance > 0.0 && relative_tolerance < 1.0,
               "tolerance must lie in (0, 1)");
  net.validate();

  LifetimeBracket bracket;
  bracket.lower = achievable_lifetime_lower_bound(net);

  // No node can outlive its zero-children (sink: one-child) lifetime, so
  // the minimum over nodes caps the whole network.
  double hi = std::numeric_limits<double>::infinity();
  for (wsn::VertexId v = 0; v < net.node_count(); ++v) {
    const int floor_children = v == net.sink() ? 1 : 0;
    hi = std::min(hi, net.energy_model().node_lifetime(net.initial_energy(v),
                                                       floor_children));
  }

  // The constructive bound is feasible by construction; bisect in
  // (lower, hi].  Loop invariant: `lo` LP-feasible, `hi` LP-infeasible or
  // the initial cap.
  double lo = bracket.lower;
  if (lo >= hi) {  // the constructive tree already attains the cap
    bracket.upper = hi;
    return bracket;
  }
  // The cap itself may be feasible (e.g. a path network); probe it first.
  ++bracket.probes;
  if (lp_lifetime_feasible(net, hi * (1.0 - 1e-12), options)) {
    bracket.upper = hi;
    return bracket;
  }
  while ((hi - lo) / hi > relative_tolerance) {
    const double mid = 0.5 * (lo + hi);
    ++bracket.probes;
    if (lp_lifetime_feasible(net, mid, options)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  bracket.upper = hi;
  return bracket;
}

double lp_lifetime_upper_bound(const wsn::Network& net, double relative_tolerance,
                               const IraOptions& options) {
  return bracket_max_lifetime(net, relative_tolerance, options).upper;
}

}  // namespace mrlc::core
