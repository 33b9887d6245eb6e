#include "core/variant.hpp"

#include <algorithm>
#include <sstream>

#include "core/ira.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::core {

const char* to_string(VariantId id) noexcept {
  switch (id) {
    case VariantId::kMrlc:
      return "mrlc";
    case VariantId::kEtx:
      return "etx";
    case VariantId::kMinEnergy:
      return "min_energy";
    case VariantId::kMaxLifetime:
      return "max_lifetime";
  }
  return "unknown";
}

std::optional<VariantId> variant_from_string(std::string_view name) noexcept {
  if (name == "mrlc") return VariantId::kMrlc;
  if (name == "etx") return VariantId::kEtx;
  if (name == "min_energy") return VariantId::kMinEnergy;
  if (name == "max_lifetime") return VariantId::kMaxLifetime;
  return std::nullopt;
}

const std::vector<VariantId>& all_variants() {
  static const std::vector<VariantId> kAll = {
      VariantId::kMrlc, VariantId::kEtx, VariantId::kMinEnergy,
      VariantId::kMaxLifetime};
  return kAll;
}

double conservative_energy_rate(const wsn::Network& net, graph::VertexId v,
                                graph::EdgeId e) {
  const double per_packet = v == net.sink() ? net.energy_model().rx_joules
                                            : net.energy_model().tx_joules;
  return per_packet / net.link_prr(e);
}

namespace {

/// Lifetime of v if EVERY remaining support edge incident to it became a
/// tree edge — the paper's E*(L(v)) of Line 8.  Non-sink vertices spend one
/// incident edge on their parent.
double worst_case_lifetime(const wsn::Network& net, const graph::Graph& working,
                           graph::VertexId v) {
  const int support_degree = working.degree(v);
  const int children =
      v == net.sink() ? support_degree : std::max(0, support_degree - 1);
  return net.energy_model().node_lifetime(net.initial_energy(v), children);
}

/// Worst-case conservative rate of v over its remaining support edges.
double worst_case_rate(const wsn::Network& net, const graph::Graph& working,
                       graph::VertexId v) {
  double rate = 0.0;
  for (graph::EdgeId e : working.incident(v)) {
    rate += conservative_energy_rate(net, v, e);
  }
  return rate;
}

/// Per-node energy budget in joules per round at lifetime `bound`.
double energy_budget(const wsn::Network& net, graph::VertexId v, double bound) {
  return net.initial_energy(v) / bound;
}

class MrlcVariant final : public ProblemVariant {
 public:
  explicit MrlcVariant(BoundMode mode) : mode_(mode) {}

  VariantId id() const noexcept override { return VariantId::kMrlc; }

  const char* certificate() const noexcept override {
    return "cost <= OPT(L') with lifetime >= LC (paper-strict), or "
           "cost <= OPT(LC) with <= 2 extra children per node (direct)";
  }

  double edge_cost(const wsn::Network& net, graph::EdgeId e) const override {
    return net.link_cost(e);
  }

  double tree_objective(const wsn::Network& net,
                        const wsn::AggregationTree& tree) const override {
    return wsn::tree_cost(net, tree);
  }

  double internal_bound(const wsn::Network& net,
                        double requested) const override {
    return mode_ == BoundMode::kPaperStrict
               ? IterativeRelaxation::strict_bound(net, requested)
               : requested;
  }

  DegreeBounds bounds(const wsn::Network& net,
                      const std::vector<bool>& constrained,
                      double internal_bound) const override {
    return {lifetime_degree_caps(net, constrained, internal_bound), nullptr};
  }

  /// Mode-dependent Line-8 test: may v's lifetime row be dropped?
  ///
  /// * Paper-strict mode: drop when even taking every support edge keeps
  ///   the lifetime at LC — sound because the LP ran with the stricter L'.
  /// * Direct mode: the Singh–Lau rule — drop when the support degree is
  ///   within 2 of the LC degree cap.  Theorem 2's token argument
  ///   guarantees such a vertex exists at a fractional extreme point, and
  ///   it bounds the final violation by two children per node.
  bool row_removable(const wsn::Network& net, const graph::Graph& working,
                     graph::VertexId v, double requested) const override {
    if (mode_ == BoundMode::kPaperStrict) {
      return worst_case_lifetime(net, working, v) >= requested;
    }
    const double children_cap = net.max_children_real(v, requested);
    const double degree_cap =
        v == net.sink() ? children_cap : children_cap + 1.0;
    return static_cast<double>(working.degree(v)) <= degree_cap + 2.0 + 1e-9;
  }

  double removal_slack(const wsn::Network& net, const graph::Graph& working,
                       graph::VertexId v, double requested) const override {
    return worst_case_lifetime(net, working, v) - requested;
  }

  double bound_metric(const wsn::Network& net,
                      const wsn::AggregationTree& tree) const override {
    return wsn::network_lifetime(net, tree);
  }

  std::string infeasible_message(double requested,
                                 double internal) const override {
    std::ostringstream os;
    os << "no data aggregation tree with lifetime >= " << requested
       << " exists (LP(G, L', W) infeasible with L' = " << internal << ")";
    return os.str();
  }

  std::string interrupted_message(int outer_iterations,
                                  int lp_solves) const override {
    std::ostringstream os;
    os << "budget exhausted inside the cutting-plane loop (outer iteration "
       << outer_iterations << ", after " << lp_solves << " LP solves)";
    return os.str();
  }

  const char* checkpoint_message() const noexcept override {
    return "budget exhausted between IRA outer iterations";
  }

  const char* disconnected_message() const noexcept override {
    return "edge pruning disconnected the working graph (should not happen: "
           "the LP keeps x(E(V)) = n-1 over the support)";
  }


  const char* lp_failed_message() const noexcept override {
    return "LP solve failed to converge";
  }

 private:
  BoundMode mode_;
};

/// Shared row logic of the two energy-budget variants (etx and the
/// retx-mrlc adapter): weighted conservative energy rows at budget
/// I(v)/LC, removal only when even the full support fits outright (the +2
/// token slack of the plain algorithm does not port to weighted rows).
class EnergyRowsBase : public ProblemVariant {
 public:
  DegreeBounds bounds(const wsn::Network& net,
                      const std::vector<bool>& constrained,
                      double internal_bound) const override {
    const int n = net.node_count();
    std::vector<std::optional<double>> caps(static_cast<std::size_t>(n));
    for (graph::VertexId v = 0; v < n; ++v) {
      if (constrained[static_cast<std::size_t>(v)]) {
        caps[static_cast<std::size_t>(v)] =
            energy_budget(net, v, internal_bound);
      }
    }
    return {std::move(caps), [&net](graph::VertexId v, graph::EdgeId e) {
              return conservative_energy_rate(net, v, e);
            }};
  }

  bool row_removable(const wsn::Network& net, const graph::Graph& working,
                     graph::VertexId v, double requested) const override {
    return worst_case_rate(net, working, v) <=
           energy_budget(net, v, requested) + 1e-15;
  }

  double removal_slack(const wsn::Network& net, const graph::Graph& working,
                       graph::VertexId v, double requested) const override {
    return energy_budget(net, v, requested) - worst_case_rate(net, working, v);
  }

  double bound_metric(const wsn::Network& net,
                      const wsn::AggregationTree& tree) const override {
    return wsn::network_lifetime_retx(net, tree);
  }
};

class EtxVariant final : public EnergyRowsBase {
 public:
  VariantId id() const noexcept override { return VariantId::kEtx; }

  const char* certificate() const noexcept override {
    return "expected transmissions <= OPT over trees satisfying the "
           "conservative energy-per-delivered-packet rows at LC";
  }

  double edge_cost(const wsn::Network& net, graph::EdgeId e) const override {
    return 1.0 / net.link_prr(e);
  }

  double tree_objective(const wsn::Network& net,
                        const wsn::AggregationTree& tree) const override {
    double etx = 0.0;
    for (graph::EdgeId e : tree.edge_ids()) {
      etx += 1.0 / net.link_prr(e);
    }
    return etx;
  }

  std::string infeasible_message(double requested,
                                 double /*internal*/) const override {
    std::ostringstream os;
    os << "no aggregation tree meets the retransmission-aware lifetime "
       << requested << " under the conservative energy rows";
    return os.str();
  }

  std::string interrupted_message(int outer_iterations,
                                  int lp_solves) const override {
    std::ostringstream os;
    os << "budget exhausted inside the etx cutting-plane loop (outer "
          "iteration "
       << outer_iterations << ", after " << lp_solves << " LP solves)";
    return os.str();
  }

  const char* checkpoint_message() const noexcept override {
    return "budget exhausted between etx-IRA outer iterations";
  }

  const char* disconnected_message() const noexcept override {
    return "edge pruning disconnected the etx support";
  }


  const char* lp_failed_message() const noexcept override {
    return "etx LP failed to converge";
  }
};

/// The historical `retx_aware_ira`: mrlc objective under the etx rows.
class RetxMrlcVariant final : public EnergyRowsBase {
 public:
  /// Identifies as mrlc so the engine keeps the native -ln q edge weights
  /// (no reweighting pass — objective bits stay identical).
  VariantId id() const noexcept override { return VariantId::kMrlc; }

  bool emit_ira_metrics() const noexcept override { return false; }

  const char* certificate() const noexcept override {
    return "cost <= OPT over trees satisfying the conservative "
           "retransmission-aware energy rows at LC";
  }

  double edge_cost(const wsn::Network& net, graph::EdgeId e) const override {
    return net.link_cost(e);
  }

  double tree_objective(const wsn::Network& net,
                        const wsn::AggregationTree& tree) const override {
    return wsn::tree_cost(net, tree);
  }

  std::string infeasible_message(double requested,
                                 double /*internal*/) const override {
    std::ostringstream os;
    os << "no aggregation tree meets the retransmission-aware lifetime "
       << requested << " under the conservative energy rows";
    return os.str();
  }

  std::string interrupted_message(int outer_iterations,
                                  int /*lp_solves*/) const override {
    std::ostringstream os;
    os << "budget exhausted inside the retx-aware cutting-plane loop "
       << "(outer iteration " << outer_iterations << ")";
    return os.str();
  }

  const char* checkpoint_message() const noexcept override {
    return "budget exhausted between retx-IRA outer iterations";
  }

  const char* disconnected_message() const noexcept override {
    return "edge pruning disconnected the retx-aware support";
  }


  const char* lp_failed_message() const noexcept override {
    return "retx-aware LP failed to converge";
  }
};

class MinEnergyVariant final : public ProblemVariant {
 public:
  VariantId id() const noexcept override { return VariantId::kMinEnergy; }

  const char* certificate() const noexcept override {
    return "exact optimum: one certified Subtour-LP round (integral extreme "
           "points, Lemma 1) == the MST under expected-energy weights";
  }

  double edge_cost(const wsn::Network& net, graph::EdgeId e) const override {
    const auto& energy = net.energy_model();
    return (energy.tx_joules + energy.rx_joules) / net.link_prr(e);
  }

  double tree_objective(const wsn::Network& net,
                        const wsn::AggregationTree& tree) const override {
    double joules = 0.0;
    for (graph::EdgeId e : tree.edge_ids()) {
      joules += edge_cost(net, e);
    }
    return joules;
  }

  bool constrained_at_start() const noexcept override { return false; }

  DegreeBounds bounds(const wsn::Network& net,
                      const std::vector<bool>& /*constrained*/,
                      double /*internal_bound*/) const override {
    return {std::vector<std::optional<double>>(
                static_cast<std::size_t>(net.node_count())),
            nullptr};
  }

  bool row_removable(const wsn::Network&, const graph::Graph&, graph::VertexId,
                     double) const override {
    return true;  // no rows exist; never reached
  }

  double removal_slack(const wsn::Network&, const graph::Graph&,
                       graph::VertexId, double) const override {
    return 0.0;  // no rows exist; never reached
  }

  double bound_metric(const wsn::Network& net,
                      const wsn::AggregationTree& tree) const override {
    return wsn::network_lifetime(net, tree);
  }

  std::string infeasible_message(double /*requested*/,
                                 double /*internal*/) const override {
    return "min-energy Subtour LP infeasible (disconnected topology)";
  }

  std::string interrupted_message(int outer_iterations,
                                  int lp_solves) const override {
    std::ostringstream os;
    os << "budget exhausted inside the min-energy cutting-plane loop (outer "
          "iteration "
       << outer_iterations << ", after " << lp_solves << " LP solves)";
    return os.str();
  }

  const char* checkpoint_message() const noexcept override {
    return "budget exhausted before the min-energy LP round";
  }

  const char* disconnected_message() const noexcept override {
    return "edge pruning disconnected the min-energy support";
  }


  const char* lp_failed_message() const noexcept override {
    return "min-energy LP failed to converge";
  }
};

class MaxLifetimeVariant final : public ProblemVariant {
 public:
  VariantId id() const noexcept override { return VariantId::kMaxLifetime; }

  bool maximizing() const noexcept override { return true; }

  const char* certificate() const noexcept override {
    return "achieved lifetime <= LP-certified upper bound over the discrete "
           "candidate ladder I(v)/(Tx + Rx*k); equal when the scan closes";
  }

  /// Tie-break objective among equal-lifetime trees: the paper's cost.
  double edge_cost(const wsn::Network& net, graph::EdgeId e) const override {
    return net.link_cost(e);
  }

  double tree_objective(const wsn::Network& net,
                        const wsn::AggregationTree& tree) const override {
    return wsn::network_lifetime(net, tree);
  }

  DegreeBounds bounds(const wsn::Network& net,
                      const std::vector<bool>& constrained,
                      double internal_bound) const override {
    return {lifetime_degree_caps(net, constrained, internal_bound), nullptr};
  }

  bool row_removable(const wsn::Network& net, const graph::Graph& working,
                     graph::VertexId v, double requested) const override {
    const double children_cap = net.max_children_real(v, requested);
    const double degree_cap =
        v == net.sink() ? children_cap : children_cap + 1.0;
    return static_cast<double>(working.degree(v)) <= degree_cap + 2.0 + 1e-9;
  }

  double removal_slack(const wsn::Network& net, const graph::Graph& working,
                       graph::VertexId v, double requested) const override {
    return worst_case_lifetime(net, working, v) - requested;
  }

  double bound_metric(const wsn::Network& net,
                      const wsn::AggregationTree& tree) const override {
    return wsn::network_lifetime(net, tree);
  }

  std::string infeasible_message(double requested,
                                 double internal) const override {
    std::ostringstream os;
    os << "maximum achievable lifetime is LP-certified below the requested "
          "floor "
       << requested << " (upper bound " << internal << ")";
    return os.str();
  }

  std::string interrupted_message(int outer_iterations,
                                  int lp_solves) const override {
    std::ostringstream os;
    os << "budget exhausted inside the max-lifetime scan (outer iteration "
       << outer_iterations << ", after " << lp_solves << " LP solves)";
    return os.str();
  }

  const char* checkpoint_message() const noexcept override {
    return "budget exhausted between max-lifetime candidate probes";
  }

  const char* disconnected_message() const noexcept override {
    return "edge pruning disconnected the max-lifetime support";
  }


  const char* lp_failed_message() const noexcept override {
    return "max-lifetime probe LP failed to converge";
  }
};

const MrlcVariant kMrlcStrict{BoundMode::kPaperStrict};
const MrlcVariant kMrlcDirect{BoundMode::kDirect};
const EtxVariant kEtx;
const RetxMrlcVariant kRetxMrlc;
const MinEnergyVariant kMinEnergy;
const MaxLifetimeVariant kMaxLifetime;

}  // namespace

const ProblemVariant& problem_variant(VariantId id) {
  switch (id) {
    case VariantId::kMrlc:
      return kMrlcDirect;
    case VariantId::kEtx:
      return kEtx;
    case VariantId::kMinEnergy:
      return kMinEnergy;
    case VariantId::kMaxLifetime:
      return kMaxLifetime;
  }
  MRLC_REQUIRE(false, "unknown problem variant");
  return kMrlcDirect;  // unreachable
}

const ProblemVariant& mrlc_variant(BoundMode mode) {
  MRLC_REQUIRE(mode != BoundMode::kAuto,
               "bound mode kAuto is resolved by core::solve only");
  return mode == BoundMode::kPaperStrict ? kMrlcStrict : kMrlcDirect;
}

const ProblemVariant& retx_mrlc_variant() { return kRetxMrlc; }

std::vector<double> lifetime_candidates(const wsn::Network& net) {
  const int n = net.node_count();
  std::vector<double> ladder;
  ladder.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (graph::VertexId v = 0; v < n; ++v) {
    for (int k = 0; k < n; ++k) {
      ladder.push_back(
          net.energy_model().node_lifetime(net.initial_energy(v), k));
    }
  }
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

}  // namespace mrlc::core
