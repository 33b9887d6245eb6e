#pragma once

/// \file logical_process.hpp
/// \brief Simulation state and per-node round bodies of the data-plane
/// engine.
///
/// `run_dataplane` is split into two layers:
///
/// * `SimState` — the true and believed networks, churn/channel/
///   estimator/maintainer objects, per-entity forked RNG streams, cached
///   tree structure (parents, children CSR, BFS order, the on-tree mask,
///   link ownership), the per-window transaction outcome slots, and the
///   result accumulators.  It also holds the per-node round bodies: node
///   v's *logical process* is the ARQ transaction of v, the churn +
///   channel re-derivation of the links v *owns* (on-tree link -> owned
///   by the child endpoint; off-tree link -> owned by min(u, v)), and in
///   estimator mode the probe beacons of v's owned idle links.  Every
///   random draw comes from a stream forked per entity (node or link), so
///   results do not depend on which worker runs which node.  All *merge*
///   work (readings, energy, counters, repair events) lives here as
///   serial-checkpoint methods.
/// * the driver — `run_dataplane` in `dataplane.cpp`, a sharded
///   (round, node) sweep on the default pool.
///
/// Determinism argument (see docs/algorithms.md §18): each link and each
/// node is touched by exactly one logical process per round, every draw
/// comes from that entity's own stream, integer counters are summed (an
/// abelian reduction), floating-point accumulators receive their terms
/// in a fixed per-memory-location order, and cross-entity decisions
/// (repairs) are applied at serial checkpoints in link-id order.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "distributed/dataplane.hpp"

namespace mrlc::dist::engine {

/// Virtual time in ARQ slots, the unit `radio::arq` charges for attempts
/// and backoff gaps.
using SlotTime = std::uint64_t;

/// Outcome slot of one (node, round-in-window) ARQ transaction, written
/// by exactly one logical process and read at the window's serial
/// checkpoint.  `participated` is false for the root and non-members —
/// the slot is fully rewritten every round, so no cross-round state
/// leaks through it.
struct TxnOutcome {
  double sender_joules = 0.0;
  double receiver_joules = 0.0;
  std::uint32_t data_tx = 0;
  std::uint32_t ack_tx = 0;
  std::uint32_t duplicates = 0;
  std::uint32_t ack_losses = 0;
  std::uint32_t slots = 0;
  std::uint16_t attempts = 0;
  bool participated = false;
  bool data_held = false;
  bool acked = false;
};

/// Integer work sums of one commit chunk (exact, order-independent).
struct Tally {
  long long transactions = 0;
  long long data_tx = 0;
  long long ack_tx = 0;
  long long ack_losses = 0;
  long long duplicates = 0;
  long long dropped = 0;
  unsigned long long slots = 0;
};

/// State of the data-plane engine.  Public-by-design: the driver in
/// `dataplane.cpp` is the only consumer and lives in this module.
struct SimState {
  SimState(wsn::Network net_in, wsn::AggregationTree tree,
           double lifetime_bound_in, const DataPlaneOptions& options_in,
           int shard_count_in);

  // --- immutable configuration -------------------------------------
  const DataPlaneOptions* options;
  double lifetime_bound = 0.0;
  int n = 0;
  int links = 0;
  int shard_count = 1;     ///< sweep shards = fired-event lists
  int window_rounds = 1;   ///< effective window width (1 in repair modes)
  SlotTime round_span = 1; ///< virtual-time slots reserved per round
  double tx_joules = 0.0;
  double rx_joules = 0.0;

  // --- simulation objects ------------------------------------------
  wsn::Network net;       ///< ground truth; churn mutates it
  wsn::Network believed;  ///< what the nodes believe (estimator updates)
  ChurnProcess churn;
  Rng channel_init_rng_;  ///< master stream 2, consumed by `channels` below
  radio::ChannelSet channels;
  LinkEstimatorBank estimator;
  DistributedMaintainer maintainer;

  // --- per-entity RNG streams (forked serially at construction) ----
  std::vector<Rng> churn_rng;  ///< one per link
  std::vector<Rng> probe_rng;  ///< one per link (estimator mode w/ probing)
  std::vector<Rng> node_rng;   ///< one per node

  // --- cached tree structure (rebuilt only when a repair lands) ----
  std::vector<wsn::VertexId> parents;     ///< -1 for root / non-members
  std::vector<wsn::EdgeId> parent_edges;  ///< -1 for root / non-members
  std::vector<char> on_tree;              ///< per-link membership mask
  std::vector<wsn::VertexId> bfs_order;   ///< members, parents first
  std::vector<int> child_offsets;         ///< children CSR (n + 1)
  std::vector<wsn::VertexId> child_list;
  std::vector<int> owned_offsets;         ///< link-ownership CSR (n + 1)
  std::vector<wsn::EdgeId> owned_links;   ///< ascending per owner

  // --- window buffers ----------------------------------------------
  int window_start = 0;
  std::vector<TxnOutcome> txn;  ///< n * window_rounds slots
  /// Per-shard fired-event lists, merged (sorted by link id) at the
  /// serial checkpoint.
  std::vector<std::vector<LinkEvent>> fired_churn;
  std::vector<std::vector<LinkEvent>> fired_est;
  std::vector<char> reach;      ///< readings scratch (per-node)
  std::vector<Tally> tallies;   ///< commit-chunk scratch

  // --- accumulators -------------------------------------------------
  std::vector<double> consumed;
  std::vector<int> pending_degrade;
  std::vector<int> pending_improve;
  std::uint64_t delivered_total = 0;
  std::uint64_t data_tx_total = 0;
  std::uint64_t ack_tx_total = 0;
  std::uint64_t slots_total = 0;
  long long transactions_total = 0;
  int complete_rounds = 0;
  int completed_rounds = 0;
  int windows_committed = 0;
  double lag_sum = 0.0;
  bool tree_dirty = false;  ///< set by repairs; caches need a rebuild
  bool stopped = false;     ///< budget exhausted
  DataPlaneResult out;

  // --- helpers ------------------------------------------------------
  TxnOutcome& slot(wsn::VertexId v, int k) {
    return txn[static_cast<std::size_t>(v) * static_cast<std::size_t>(window_rounds) +
               static_cast<std::size_t>(k)];
  }
  const TxnOutcome& slot(wsn::VertexId v, int k) const {
    return txn[static_cast<std::size_t>(v) * static_cast<std::size_t>(window_rounds) +
               static_cast<std::size_t>(k)];
  }
  /// Commit-map chunk count; a function of `n` only so the map's
  /// floating-point grouping is identical for every thread count.
  int chunk_count() const;
  bool estimator_mode() const {
    return options->repair == RepairMode::kEstimator;
  }
  bool probing() const {
    return estimator_mode() && options->probe_probability > 0.0;
  }

  /// Charges the budget for the next window; returns the rounds granted
  /// (0 when the budget ran dry — `stopped` is set).
  int plan_window();

  /// Recomputes every tree cache from `maintainer.tree()`.
  void rebuild_tree_caches();

  // --- per-entity handlers (parallel-safe for distinct entities) ---
  /// Churns one link from its own stream and re-derives its channel.
  /// Appends the fired event to `fired` when non-null.
  void churn_link(wsn::EdgeId e, std::vector<LinkEvent>* fired);
  /// Runs node `v`'s ARQ transaction into `slot(v, k)`; in estimator
  /// mode the outcome is observed and a fired event lands in `fired`.
  void transact_node(wsn::VertexId v, int k, std::vector<LinkEvent>* fired);
  /// Probes one idle link (estimator mode) from its own stream.
  void probe_link(wsn::EdgeId e, std::vector<LinkEvent>* fired);

  // --- per-node round bodies (parallel-safe for distinct nodes) ----
  /// Churns every link node `v` owns, in ascending link id.
  void churn_owned(wsn::VertexId v, std::vector<LinkEvent>* fired);
  /// Probes node `v`'s owned links that are idle and alive.
  void probe_owned(wsn::VertexId v, std::vector<LinkEvent>* fired);
  /// Node `v`'s whole round `k` of the window in the fused modes:
  /// churn its owned links, transact over the freshly re-anchored
  /// channel, then probe.
  /// Churn events are collected in `fired_churn` (estimator mode's
  /// pending marks), estimator events in `fired_est`; either may be null.
  void node_round(wsn::VertexId v, int k, std::vector<LinkEvent>* fired_churn,
                  std::vector<LinkEvent>* fired_est);

  // --- serial checkpoint pieces --------------------------------------
  /// Drains the per-shard lists into one vector sorted by link id.
  std::vector<LinkEvent> drain_sorted(std::vector<std::vector<LinkEvent>>& fired);
  /// kOracle: feeds the drained churn events to the maintainer.
  void apply_oracle_events();
  /// kEstimator: records the drained churn events as pending true
  /// changes for the detection-lag accounting.
  void apply_pending_marks(int round);
  /// kEstimator: applies the drained estimator events — believed-view
  /// update, repairs, detection/false-positive bookkeeping.
  void apply_estimator_events(int round);
  /// Readings + energy + work counters for the committed window
  /// (`planned` rounds starting at `window_start`).
  void commit_window(int planned);
  /// Bumps the window count and emits a metrics snapshot when due.
  void end_window(int planned);

  /// Normalizes the accumulators into `out` and bumps the dataplane.*
  /// counters (the driver adds its des.* instruments).
  void finalize();
};

/// Upper bound on the slots one round can occupy: every transaction runs
/// at most `max_attempts` attempt slots plus the capped backoff gaps,
/// and the two oracle-mode phases need one offset each.  Transmission
/// delay is what gives the conservative engine its lookahead: nothing a
/// node does in round r can affect any state read before slot
/// (r+1)*span.
SlotTime slots_per_round(const radio::ArqPolicy& policy);

}  // namespace mrlc::dist::engine
