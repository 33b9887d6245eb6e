#pragma once
/// \file checks.hpp
/// \brief Output checks behind the benchmark's `failed` count.
///
/// The checks share no code with the solver: a tree is re-validated from
/// its parent array against the network's links and energy model, its cost
/// is recomputed as the sum of -log(PRR) over its links, and a data-plane
/// run is reduced to a digest of its result fields and counters.  Every
/// check returns an empty string on success and a one-line reason
/// otherwise.

#include <map>
#include <string>
#include <vector>

#include "distributed/dataplane.hpp"
#include "wsn/network.hpp"

namespace perfbench {

/// Relative tolerance for a reported cost against its recomputation, and
/// absolute tolerance for a cost against its golden value.
inline constexpr double kCostTolerance = 1e-9;

/// Checks that `parent` (parent[sink] == -1) is a spanning tree of `net`
/// rooted at the sink over alive links, that every node's lifetime under
/// the tree is at least `lifetime_bound`, and that `reported_cost` equals
/// the recomputed sum of -log(PRR) over the tree's links.  Where two links
/// join the same pair, the cheaper one is taken.
std::string check_tree(const mrlc::wsn::Network& net,
                       const std::vector<int>& parent, double lifetime_bound,
                       double reported_cost);

/// Checks a cost against its golden value (absolute, kCostTolerance).
std::string check_golden_cost(double cost, double golden);

/// Parent array of an mrlc-tree-v1 text; empty when the text is malformed.
std::vector<int> parents_from_tree_text(const std::string& text);

/// Canonical text of every DataPlaneResult field (doubles round-trip).
std::string dataplane_fields_text(const mrlc::dist::DataPlaneResult& result);
/// Canonical text of the dataplane.* and arq.* counters of the metrics
/// registry (meaningful only when the registry recorded the run).
std::string dataplane_counters_text();
/// 16-hex-digit FNV-1a digest of `text`.
std::string digest(const std::string& text);
/// Checks a digest against its expected value.
std::string check_digest(const std::string& what, const std::string& actual,
                         const std::string& expected);

/// Golden values: one entry per non-comment line of `path`, keyed by its
/// first token.  A missing file gives an empty table.
using GoldenTable = std::map<std::string, std::vector<std::string>>;
GoldenTable load_golden(const std::string& path);

}  // namespace perfbench
