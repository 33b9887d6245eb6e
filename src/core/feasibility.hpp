#pragma once

/// \file feasibility.hpp
/// \brief Lifetime feasibility probing: "what is the longest lifetime any
/// aggregation tree of this network can guarantee?"
///
/// Deployments need this before picking an LC for the MRLC solve: asking
/// IRA for an unachievable bound just returns InfeasibleError.  Because the
/// exact question (does a spanning tree with the per-node children caps
/// exist?) is itself NP-hard in general, the module brackets the answer:
///
/// * `lp_lifetime_upper_bound` — binary search over the LP relaxation
///   LP(G, LC, V).  If the LP is infeasible at LC, no tree achieves LC
///   (the LP is a relaxation), so the search limit is a true upper bound.
/// * `achievable_lifetime_lower_bound` — the lifetime of a concrete tree
///   built by the strongest AAML variant (lexicographic balancing), which
///   any caller can actually deploy.
///
/// The true maximum lies in [lower, upper]; on the instances in this
/// repository the bracket is tight (see tests/feasibility_test.cpp).

#include "core/solve.hpp"
#include "wsn/network.hpp"

namespace mrlc::core {

/// \brief LP feasibility of a lifetime bound.
/// \param net  the network instance.
/// \param bound  candidate lifetime, in rounds; degree caps are taken
///        directly at `bound` (no L' tightening).
/// \param options  simplex/cut settings forwarded to the LP solve.
/// \return true iff LP(G, bound, V) has a fractional solution; a `false`
///         answer proves no aggregation tree of lifetime >= `bound` exists.
/// \throws NotConvergedError when the cut loop stops at its round cap.
bool lp_lifetime_feasible(const wsn::Network& net, double bound,
                          const IraOptions& options = {});

struct LifetimeBracket {
  double lower = 0.0;   ///< achieved by a concrete tree (deployable now)
  double upper = 0.0;   ///< LP-certified: nothing above this is possible
  int probes = 0;       ///< LP feasibility solves spent
};

/// \brief Brackets the maximum achievable network lifetime.
/// \param net  the network instance.
/// \param relative_tolerance stop when (upper-lower)/upper of the *search
///        interval* falls below this (the returned bracket may still be
///        wider if the LP bound and the constructive bound disagree).
/// \param options  simplex/cut settings forwarded to the LP probes.
/// \return [lower, upper] bracket plus the number of LP probes spent.
LifetimeBracket bracket_max_lifetime(const wsn::Network& net,
                                     double relative_tolerance = 1e-4,
                                     const IraOptions& options = {});

/// \brief Upper bound alone (binary search over the LP relaxation).
/// \return an LP-certified lifetime no spanning tree can exceed.
double lp_lifetime_upper_bound(const wsn::Network& net,
                               double relative_tolerance = 1e-4,
                               const IraOptions& options = {});

/// \brief Lower bound alone.
/// \return the lifetime of the lexicographic-AAML tree — achieved by a
///         concrete, deployable tree.
double achievable_lifetime_lower_bound(const wsn::Network& net);

}  // namespace mrlc::core
