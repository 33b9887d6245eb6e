#pragma once

/// \file retx_ira.hpp
/// \brief Retransmission-aware MRLC — the extension the paper's motivation
/// section points at but leaves open.
///
/// Section III-A argues that with an ETX retransmit-until-delivered policy
/// nodes "spend 90% of energy in retransmission"; the paper then *disables*
/// retransmissions and maximizes the delivery probability instead.  The
/// complementary deployment — one that keeps retransmissions because every
/// reading must arrive — needs the dual problem: choose the tree that
/// maximizes reliability-per-attempt while budgeting the *retransmission-
/// aware* energy rate
///
///     rate(v) = Tx / q(parent edge) + sum_children Rx / q(child edge),
///
/// i.e. `wsn::network_lifetime_retx(T) >= LC`.
///
/// Unlike Eq. 1 this is no longer a pure children bound — it depends on
/// *which* incident links the tree uses — but it is still linear in the
/// edge indicators, so the same iterative relaxation machinery applies
/// with weighted degree rows.  Because the LP cannot know which incident
/// edge becomes the parent, each edge is charged its worst role,
/// `max(Tx, Rx) / q_e`; that makes the formulation *conservative*: any
/// returned tree is guaranteed to meet LC under the exact asymmetric rate
/// (verified per-instance before returning), at the price of declaring
/// some borderline-feasible instances infeasible.

#include "core/solve.hpp"

namespace mrlc::core {

/// \brief Minimum-cost tree whose retransmission-aware lifetime is >= LC
/// (conservative LP; see file comment).
/// \param net  the network instance.
/// \param lifetime_bound  required retransmission-aware lifetime, rounds.
/// \param options  IRA knobs; bound_mode is ignored (caps are direct).
/// \return the tree with its exact asymmetric retx lifetime in
///         `bound_metric`; `meets_bound` records the final per-instance
///         verification.  Like `IterativeRelaxation::solve` this is a raw
///         engine call: the status is always kOptimal.
/// \throws InfeasibleError when the conservative LP has no solution or the
///         topology is disconnected.
SolveResult retx_aware_ira(const wsn::Network& net, double lifetime_bound,
                           const IraOptions& options = {});

}  // namespace mrlc::core
