#pragma once

/// \file dataplane.hpp
/// \brief Closed-loop simulation: lossy ARQ data plane -> online link
/// estimation -> Section-VI tree repair.
///
/// The missing robustness layer between `radio::arq` and
/// `DistributedMaintainer`: every round the tree carries one convergecast
/// under stop-and-wait ARQ over a (possibly bursty) channel while the true
/// link qualities drift (`ChurnProcess`).  What *triggers* a repair depends
/// on the mode:
///
/// * `kNone`      — the tree is frozen at construction (lower bound);
/// * `kOracle`    — churn's own events drive the maintainer, i.e. the
///                  paper's assumption that nodes learn quality changes
///                  instantly and exactly;
/// * `kEstimator` — repairs fire only from what nodes *observe*: ARQ ACK
///                  outcomes on tree links plus occasional probe beacons on
///                  idle links feed `LinkEstimatorBank`, whose hysteresis
///                  events drive the maintainer.  Decisions are made on the
///                  *believed* network (estimated PRRs), never the true one.
///
/// The run reports delivery ratio, energy, repair counts, the estimator's
/// detection lag behind the oracle, false-positive repairs (burst-loss
/// streaks mistaken for degradation), and the measured lifetime
/// extrapolated from the per-node ARQ energy accounting.

#include <cstdint>
#include <string>

#include "common/budget.hpp"
#include "distributed/churn.hpp"
#include "distributed/link_estimator.hpp"
#include "distributed/maintainer.hpp"
#include "radio/arq.hpp"

namespace mrlc::dist {

enum class RepairMode { kNone, kOracle, kEstimator };

struct DataPlaneOptions {
  int rounds = 400;
  radio::ArqPolicy arq;
  radio::ChannelConfig channel;
  EstimatorOptions estimator;
  ChurnOptions churn;
  MaintainerOptions maintainer;
  RepairMode repair = RepairMode::kEstimator;
  /// Per-round probability that an idle (non-tree) link receives one probe
  /// beacon sample; 0 disables probing (improvements then go unnoticed).
  double probe_probability = 0.1;
  std::uint64_t seed = 0xDA7A91A7EULL;
  /// Optional cooperative budget (not owned): one unit per simulated round,
  /// charged serially at each window boundary, so the budget is consumed
  /// identically for every thread count.  When it runs out the simulation
  /// stops early and every per-round average is normalized by the rounds
  /// actually completed (`DataPlaneResult::rounds`).
  Budget* budget = nullptr;
  /// Rounds per conservative window in `kNone` mode (repair modes force a
  /// width of 1: a repair committed in round r changes the tree round r+1
  /// reads, which bounds the lookahead to one round).  Wider windows
  /// amortize the barrier; results do not depend on the width.
  int window_rounds = 8;
  /// Emit a metrics snapshot to `metrics_flush_path` every N committed
  /// windows (0 = off), so long-running simulations are observable in
  /// flight.
  int metrics_flush_every = 0;
  std::string metrics_flush_path;

  void validate() const {
    MRLC_REQUIRE(rounds >= 1, "need at least one round");
    MRLC_REQUIRE(probe_probability >= 0.0 && probe_probability <= 1.0,
                 "probe probability must lie in [0, 1]");
    MRLC_REQUIRE(window_rounds >= 1, "need at least one round per window");
    MRLC_REQUIRE(metrics_flush_every >= 0,
                 "metrics flush cadence must be >= 0");
  }
};

struct DataPlaneResult {
  /// Rounds actually simulated: `options.rounds` unless a budget stopped
  /// the run early.
  int rounds = 0;
  // Data plane:
  double delivery_ratio = 0.0;       ///< delivered non-sink readings / expected
  double round_success_ratio = 0.0;  ///< rounds that delivered everything
  double avg_data_tx_per_round = 0.0;
  double avg_ack_tx_per_round = 0.0;
  double avg_slots_per_round = 0.0;
  long long duplicates_suppressed = 0;
  long long packets_dropped = 0;
  double joules_per_reading = 0.0;
  /// First-node-death extrapolated from measured per-round energy rates.
  double measured_lifetime_rounds = 0.0;
  // Repair loop:
  long long degraded_events = 0;  ///< events fed to the maintainer
  long long improved_events = 0;
  long long repairs_applied = 0;  ///< accepted parent changes
  // Estimator vs oracle (kEstimator only; zero/NaN otherwise):
  long long detections = 0;            ///< estimator events matching a true change
  double mean_detection_lag_rounds = 0.0;
  long long false_positive_events = 0; ///< no true change behind the event
  long long missed_events = 0;         ///< true changes never detected
  double estimate_mae = 0.0;           ///< mean |estimate - true PRR| at the end
  // Final state (true network):
  double final_reliability = 0.0;
  double final_lifetime = 0.0;
  bool bound_met = false;
};

/// \brief Runs the closed loop for `options.rounds` rounds on the default
/// thread pool: a sharded (round, node) sweep in bounded windows with
/// serial checkpoints (docs/algorithms.md §18), bit-identical for every
/// thread count.
/// \param net  taken by value: churn mutates the link qualities as the run
///        progresses.
/// \param tree  the construction-time aggregation tree (e.g. from IRA).
/// \param lifetime_bound  the LC every repair must preserve.
/// \param options  ARQ/channel/estimator/churn/repair configuration
///        (validated on entry).
/// \return delivery, energy, repair, and estimator-vs-oracle statistics
///         plus the final true-network reliability and lifetime.
DataPlaneResult run_dataplane(wsn::Network net, wsn::AggregationTree tree,
                              double lifetime_bound,
                              const DataPlaneOptions& options);

}  // namespace mrlc::dist
