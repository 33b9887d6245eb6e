#include "distributed/logical_process.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "wsn/metrics.hpp"

namespace mrlc::dist::engine {

SlotTime slots_per_round(const radio::ArqPolicy& policy) {
  SlotTime span = 2;  // phase offsets: churn fires at +0, transactions at +1
  span += static_cast<SlotTime>(policy.max_attempts);
  for (int failures = 1; failures < policy.max_attempts; ++failures) {
    span += policy.backoff_slots(failures);
  }
  return span;
}

namespace {

/// The k-th stream forked from the master seed.  Streams 1..4 are, in
/// order: the churn base, the channel-initialization stream, the probe
/// base, and the node base.  `fork` mutates the parent, so the k-th
/// stream is only reachable by replaying the forks before it.
Rng nth_fork(std::uint64_t seed, int k) {
  Rng master(seed);
  Rng out = master.fork(1);
  for (int i = 2; i <= k; ++i) out = master.fork(static_cast<std::uint64_t>(i));
  return out;
}

}  // namespace

SimState::SimState(wsn::Network net_in, wsn::AggregationTree tree,
                   double lifetime_bound_in, const DataPlaneOptions& options_in,
                   int shard_count_in)
    : options(&options_in),
      lifetime_bound(lifetime_bound_in),
      n(net_in.node_count()),
      links(net_in.link_count()),
      shard_count(std::max(1, shard_count_in)),
      window_rounds(options_in.repair == RepairMode::kNone
                        ? std::min(options_in.window_rounds, options_in.rounds)
                        : 1),
      round_span(slots_per_round(options_in.arq)),
      tx_joules(net_in.energy_model().tx_joules),
      rx_joules(net_in.energy_model().rx_joules),
      net(std::move(net_in)),
      believed(net),
      churn(net, options_in.churn),
      channel_init_rng_(nth_fork(options_in.seed, 2)),
      channels(net, options_in.channel, channel_init_rng_),
      estimator(net, options_in.estimator),
      maintainer(believed, std::move(tree), lifetime_bound_in,
                 options_in.maintainer) {
  // Per-entity streams, forked serially in a fixed order so the plan is
  // identical for every thread count.
  Rng churn_base = nth_fork(options->seed, 1);
  churn_rng.reserve(static_cast<std::size_t>(links));
  for (wsn::EdgeId e = 0; e < links; ++e) {
    churn_rng.push_back(churn_base.fork(static_cast<std::uint64_t>(e)));
  }
  if (probing()) {
    Rng probe_base = nth_fork(options->seed, 3);
    probe_rng.reserve(static_cast<std::size_t>(links));
    for (wsn::EdgeId e = 0; e < links; ++e) {
      probe_rng.push_back(probe_base.fork(static_cast<std::uint64_t>(e)));
    }
  }
  Rng node_base = nth_fork(options->seed, 4);
  node_rng.reserve(static_cast<std::size_t>(n));
  for (wsn::VertexId v = 0; v < n; ++v) {
    node_rng.push_back(node_base.fork(static_cast<std::uint64_t>(v)));
  }

  txn.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(window_rounds),
             TxnOutcome{});
  fired_churn.resize(static_cast<std::size_t>(shard_count));
  fired_est.resize(static_cast<std::size_t>(shard_count));
  reach.assign(static_cast<std::size_t>(n), 0);
  tallies.assign(static_cast<std::size_t>(chunk_count()), Tally{});
  consumed.assign(static_cast<std::size_t>(n), 0.0);
  pending_degrade.assign(static_cast<std::size_t>(links), -1);
  pending_improve.assign(static_cast<std::size_t>(links), -1);
  rebuild_tree_caches();
}

int SimState::chunk_count() const {
  return std::clamp(n / 4096, 1, 256);
}

int SimState::plan_window() {
  const int want = std::min(window_rounds, options->rounds - completed_rounds);
  int planned = 0;
  while (planned < want) {
    if (options->budget != nullptr && !options->budget->charge(1)) {
      stopped = true;
      break;
    }
    ++planned;
  }
  return planned;
}

void SimState::rebuild_tree_caches() {
  const wsn::AggregationTree& tree = maintainer.tree();
  const wsn::VertexId root = tree.root();
  parents.assign(static_cast<std::size_t>(n), -1);
  parent_edges.assign(static_cast<std::size_t>(n), -1);
  on_tree.assign(static_cast<std::size_t>(links), 0);
  std::vector<wsn::VertexId> owner(static_cast<std::size_t>(links), 0);
  for (wsn::VertexId v = 0; v < n; ++v) {
    if (v == root || !tree.contains(v)) continue;
    const wsn::EdgeId e = tree.parent_edge(v);
    parents[static_cast<std::size_t>(v)] = tree.parent(v);
    parent_edges[static_cast<std::size_t>(v)] = e;
    on_tree[static_cast<std::size_t>(e)] = 1;
    owner[static_cast<std::size_t>(e)] = v;  // the child endpoint owns it
  }
  for (wsn::EdgeId e = 0; e < links; ++e) {
    if (on_tree[static_cast<std::size_t>(e)]) continue;
    const auto& edge = net.topology().edge(e);
    owner[static_cast<std::size_t>(e)] = std::min(edge.u, edge.v);
  }

  // Children CSR, filled in ascending child order.
  child_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (wsn::VertexId v = 0; v < n; ++v) {
    const wsn::VertexId p = parents[static_cast<std::size_t>(v)];
    if (p >= 0) ++child_offsets[static_cast<std::size_t>(p) + 1];
  }
  for (int i = 0; i < n; ++i) child_offsets[i + 1] += child_offsets[i];
  child_list.assign(static_cast<std::size_t>(child_offsets[n]), 0);
  {
    std::vector<int> cursor(child_offsets.begin(), child_offsets.end() - 1);
    for (wsn::VertexId v = 0; v < n; ++v) {
      const wsn::VertexId p = parents[static_cast<std::size_t>(v)];
      if (p >= 0) child_list[static_cast<std::size_t>(cursor[p]++)] = v;
    }
  }

  // Members in BFS order (parents before children, children ascending).
  bfs_order.clear();
  bfs_order.reserve(static_cast<std::size_t>(tree.member_count()));
  bfs_order.push_back(root);
  for (std::size_t i = 0; i < bfs_order.size(); ++i) {
    const wsn::VertexId v = bfs_order[i];
    for (int j = child_offsets[v]; j < child_offsets[v + 1]; ++j) {
      bfs_order.push_back(child_list[static_cast<std::size_t>(j)]);
    }
  }

  // Link-ownership CSR, ascending link ids per owner.
  owned_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (wsn::EdgeId e = 0; e < links; ++e) {
    ++owned_offsets[static_cast<std::size_t>(owner[static_cast<std::size_t>(e)]) + 1];
  }
  for (int i = 0; i < n; ++i) owned_offsets[i + 1] += owned_offsets[i];
  owned_links.assign(static_cast<std::size_t>(links), 0);
  {
    std::vector<int> cursor(owned_offsets.begin(), owned_offsets.end() - 1);
    for (wsn::EdgeId e = 0; e < links; ++e) {
      owned_links[static_cast<std::size_t>(
          cursor[owner[static_cast<std::size_t>(e)]]++)] = e;
    }
  }
}

void SimState::churn_link(wsn::EdgeId e, std::vector<LinkEvent>* fired) {
  auto event =
      churn.step_link(net, e, churn_rng[static_cast<std::size_t>(e)]);
  // Re-anchor the channel immediately: sub-threshold drift changes the
  // loss process even when no event fires (`ChannelSet::sync_link` draws
  // no RNG).
  channels.sync_link(e, net.link_prr(e));
  if (fired != nullptr && event.has_value()) fired->push_back(*event);
}

void SimState::transact_node(wsn::VertexId v, int k,
                             std::vector<LinkEvent>* fired) {
  TxnOutcome& slot_ref = slot(v, k);
  const wsn::EdgeId link = parent_edges[static_cast<std::size_t>(v)];
  if (link < 0) {
    slot_ref = TxnOutcome{};  // root / non-member: fully rewritten, no stale state
    return;
  }
  const double q_ack = options->arq.ack_prr(net.link_prr(link));
  const radio::ArqTransactionResult res = radio::simulate_arq_transaction(
      options->arq, q_ack, channels, link, tx_joules, rx_joules,
      node_rng[static_cast<std::size_t>(v)]);
  slot_ref.sender_joules = res.sender_joules;
  slot_ref.receiver_joules = res.receiver_joules;
  slot_ref.data_tx = res.data_transmissions;
  slot_ref.ack_tx = res.ack_transmissions;
  slot_ref.duplicates = res.duplicates_suppressed;
  slot_ref.ack_losses = res.ack_losses;
  slot_ref.slots = static_cast<std::uint32_t>(res.slots_elapsed);
  slot_ref.attempts = static_cast<std::uint16_t>(res.attempts);
  slot_ref.participated = true;
  slot_ref.data_held = res.data_held;
  slot_ref.acked = res.acked;
  // Sharded histogram: integer sums, so recording from parallel workers
  // is exact and order-independent.
  static metrics::Histogram& attempts_hist =
      metrics::histogram("arq.attempts_per_transaction");
  attempts_hist.record(res.attempts);
  if (estimator_mode()) {
    if (auto event = estimator.observe_detached(link, res.acked);
        event.has_value() && fired != nullptr) {
      fired->push_back(*event);
    }
  }
}

void SimState::probe_link(wsn::EdgeId e, std::vector<LinkEvent>* fired) {
  Rng& rng = probe_rng[static_cast<std::size_t>(e)];
  if (!rng.bernoulli(options->probe_probability)) return;
  const bool outcome = channels.transmit(e, rng);
  if (auto event = estimator.observe_detached(e, outcome);
      event.has_value() && fired != nullptr) {
    fired->push_back(*event);
  }
}

void SimState::churn_owned(wsn::VertexId v, std::vector<LinkEvent>* fired) {
  for (int j = owned_offsets[v]; j < owned_offsets[v + 1]; ++j) {
    churn_link(owned_links[static_cast<std::size_t>(j)], fired);
  }
}

void SimState::probe_owned(wsn::VertexId v, std::vector<LinkEvent>* fired) {
  for (int j = owned_offsets[v]; j < owned_offsets[v + 1]; ++j) {
    const wsn::EdgeId e = owned_links[static_cast<std::size_t>(j)];
    if (on_tree[static_cast<std::size_t>(e)]) continue;
    if (!net.topology().is_alive(e)) continue;
    probe_link(e, fired);
  }
}

void SimState::node_round(wsn::VertexId v, int k,
                          std::vector<LinkEvent>* fired_churn,
                          std::vector<LinkEvent>* fired_est) {
  churn_owned(v, fired_churn);
  transact_node(v, k, fired_est);
  if (probing()) probe_owned(v, fired_est);
}

std::vector<LinkEvent> SimState::drain_sorted(
    std::vector<std::vector<LinkEvent>>& fired) {
  std::size_t total = 0;
  for (const auto& shard : fired) total += shard.size();
  std::vector<LinkEvent> all;
  all.reserve(total);
  for (auto& shard : fired) {
    all.insert(all.end(), shard.begin(), shard.end());
    shard.clear();
  }
  // At most one event per link per round, so link id is a total order:
  // the merged sequence is independent of sharding and thread count.
  std::sort(all.begin(), all.end(),
            [](const LinkEvent& a, const LinkEvent& b) { return a.link < b.link; });
  return all;
}

void SimState::apply_oracle_events() {
  for (const LinkEvent& event : drain_sorted(fired_churn)) {
    const bool changed = event.kind == LinkEvent::Kind::kDegraded
                             ? maintainer.on_link_degraded(net, event.link)
                             : maintainer.on_link_improved(net, event.link);
    (event.kind == LinkEvent::Kind::kDegraded ? out.degraded_events
                                              : out.improved_events)++;
    if (changed) {
      ++out.repairs_applied;
      tree_dirty = true;
    }
  }
  if (tree_dirty) {
    rebuild_tree_caches();
    tree_dirty = false;
  }
}

void SimState::apply_pending_marks(int round) {
  for (const LinkEvent& event : drain_sorted(fired_churn)) {
    std::vector<int>& pending = event.kind == LinkEvent::Kind::kDegraded
                                    ? pending_degrade
                                    : pending_improve;
    if (pending[static_cast<std::size_t>(event.link)] < 0) {
      pending[static_cast<std::size_t>(event.link)] = round;
    }
  }
}

void SimState::apply_estimator_events(int round) {
  for (const LinkEvent& event : drain_sorted(fired_est)) {
    believed.set_link_prr(event.link, event.new_prr);
    const bool changed = event.kind == LinkEvent::Kind::kDegraded
                             ? maintainer.on_link_degraded(believed, event.link)
                             : maintainer.on_link_improved(believed, event.link);
    (event.kind == LinkEvent::Kind::kDegraded ? out.degraded_events
                                              : out.improved_events)++;
    if (changed) {
      ++out.repairs_applied;
      tree_dirty = true;
    }

    std::vector<int>& pending = event.kind == LinkEvent::Kind::kDegraded
                                    ? pending_degrade
                                    : pending_improve;
    int& since = pending[static_cast<std::size_t>(event.link)];
    if (since >= 0) {
      ++out.detections;
      static metrics::Histogram& lag_hist =
          metrics::histogram("dataplane.detection_lag_rounds");
      lag_hist.record(round - since);
      lag_sum += static_cast<double>(round - since);
      since = -1;
    } else {
      ++out.false_positive_events;
    }
  }
  if (tree_dirty) {
    rebuild_tree_caches();
    tree_dirty = false;
  }
}

void SimState::commit_window(int planned) {
  // Readings: a node's reading reaches the root iff every tree edge on
  // its path held the round's aggregate — computed top-down over the BFS
  // order, which equals the bottom-up readings aggregation of
  // `simulate_arq_round` (children transact before their parent there,
  // so a delivered subtree contributes exactly its reachable nodes).
  const wsn::VertexId root = maintainer.tree().root();
  for (int k = 0; k < planned; ++k) {
    reach[static_cast<std::size_t>(root)] = 1;
    int delivered = 1;
    for (std::size_t i = 1; i < bfs_order.size(); ++i) {
      const wsn::VertexId v = bfs_order[i];
      const char ok =
          reach[static_cast<std::size_t>(parents[static_cast<std::size_t>(v)])] &&
          slot(v, k).data_held;
      reach[static_cast<std::size_t>(v)] = ok;
      delivered += ok;
    }
    delivered_total += static_cast<std::uint64_t>(delivered - 1);
    if (delivered == n) ++complete_rounds;
  }

  // Energy + work tallies.  Each `consumed[p]` slot is written by exactly
  // one chunk, and its terms arrive in a fixed per-slot order (rounds
  // ascending; self before children, children ascending) — so the merge
  // is bit-identical for every pool width.
  const int chunks = chunk_count();
  auto body = [&](int c) {
    const wsn::VertexId lo = static_cast<wsn::VertexId>(
        static_cast<long long>(n) * c / chunks);
    const wsn::VertexId hi = static_cast<wsn::VertexId>(
        static_cast<long long>(n) * (c + 1) / chunks);
    Tally t;
    for (wsn::VertexId p = lo; p < hi; ++p) {
      for (int k = 0; k < planned; ++k) {
        const TxnOutcome& self = slot(p, k);
        if (self.participated) {
          consumed[static_cast<std::size_t>(p)] += self.sender_joules;
          ++t.transactions;
          t.data_tx += self.data_tx;
          t.ack_tx += self.ack_tx;
          t.ack_losses += self.ack_losses;
          t.duplicates += self.duplicates;
          t.slots += self.slots;
          if (!self.data_held) ++t.dropped;
        }
        for (int j = child_offsets[p]; j < child_offsets[p + 1]; ++j) {
          const TxnOutcome& child = slot(child_list[static_cast<std::size_t>(j)], k);
          if (child.participated) {
            consumed[static_cast<std::size_t>(p)] += child.receiver_joules;
          }
        }
      }
    }
    tallies[static_cast<std::size_t>(c)] = t;
  };
  default_pool().for_each(chunks, body);

  Tally sum;
  for (int c = 0; c < chunks; ++c) {
    const Tally& t = tallies[static_cast<std::size_t>(c)];
    sum.transactions += t.transactions;
    sum.data_tx += t.data_tx;
    sum.ack_tx += t.ack_tx;
    sum.ack_losses += t.ack_losses;
    sum.duplicates += t.duplicates;
    sum.dropped += t.dropped;
    sum.slots += t.slots;
  }
  transactions_total += sum.transactions;
  data_tx_total += static_cast<std::uint64_t>(sum.data_tx);
  ack_tx_total += static_cast<std::uint64_t>(sum.ack_tx);
  slots_total += sum.slots;
  out.duplicates_suppressed += sum.duplicates;
  out.packets_dropped += sum.dropped;

  // The same arq.* totals the per-round `simulate_arq_round` would bump.
  static metrics::Counter& rounds = metrics::counter("arq.rounds");
  static metrics::Counter& transactions = metrics::counter("arq.transactions");
  static metrics::Counter& data_tx = metrics::counter("arq.data_tx");
  static metrics::Counter& retx = metrics::counter("arq.retransmissions");
  static metrics::Counter& ack_tx = metrics::counter("arq.ack_tx");
  static metrics::Counter& ack_losses = metrics::counter("arq.ack_losses");
  static metrics::Counter& duplicates =
      metrics::counter("arq.duplicates_suppressed");
  static metrics::Counter& dropped = metrics::counter("arq.packets_dropped");
  rounds.add(planned);
  transactions.add(sum.transactions);
  data_tx.add(sum.data_tx);
  retx.add(sum.data_tx - sum.transactions);
  ack_tx.add(sum.ack_tx);
  ack_losses.add(sum.ack_losses);
  duplicates.add(sum.duplicates);
  dropped.add(sum.dropped);
}

void SimState::end_window(int planned) {
  completed_rounds += planned;
  window_start = completed_rounds;
  ++windows_committed;
  if (options->metrics_flush_every > 0 &&
      !options->metrics_flush_path.empty() &&
      windows_committed % options->metrics_flush_every == 0) {
    static metrics::Counter& flushes =
        metrics::counter("dataplane.metrics_flushes");
    flushes.add();
    std::ofstream os(options->metrics_flush_path);
    if (os) metrics::write_json(os);
  }
}

void SimState::finalize() {
  out.rounds = completed_rounds;
  // Normalize per-round statistics by the rounds actually simulated (the
  // max guards the all-budget-spent-up-front case against dividing by 0).
  const auto denom = static_cast<double>(std::max(1, completed_rounds));
  out.delivery_ratio =
      n > 1 ? static_cast<double>(delivered_total) /
                  (denom * static_cast<double>(n - 1))
            : 1.0;
  out.round_success_ratio = static_cast<double>(complete_rounds) / denom;
  out.avg_data_tx_per_round = static_cast<double>(data_tx_total) / denom;
  out.avg_ack_tx_per_round = static_cast<double>(ack_tx_total) / denom;
  out.avg_slots_per_round = static_cast<double>(slots_total) / denom;

  double joules_total = 0.0;
  out.measured_lifetime_rounds = std::numeric_limits<double>::infinity();
  for (wsn::VertexId v = 0; v < n; ++v) {
    const double joules = consumed[static_cast<std::size_t>(v)];
    joules_total += joules;
    const double rate = joules / denom;
    if (rate <= 0.0) continue;
    out.measured_lifetime_rounds =
        std::min(out.measured_lifetime_rounds, net.initial_energy(v) / rate);
  }
  out.joules_per_reading = delivered_total > 0
                               ? joules_total / static_cast<double>(delivered_total)
                               : std::numeric_limits<double>::infinity();

  if (options->repair == RepairMode::kEstimator) {
    out.mean_detection_lag_rounds =
        out.detections > 0 ? lag_sum / static_cast<double>(out.detections)
                           : std::numeric_limits<double>::quiet_NaN();
    for (int round_mark : pending_degrade) {
      if (round_mark >= 0) ++out.missed_events;
    }
    for (int round_mark : pending_improve) {
      if (round_mark >= 0) ++out.missed_events;
    }
    double mae = 0.0;
    for (wsn::EdgeId id = 0; id < links; ++id) {
      mae += std::abs(estimator.estimate(id) - net.link_prr(id));
    }
    out.estimate_mae = links > 0 ? mae / static_cast<double>(links) : 0.0;
  }

  out.final_reliability = wsn::tree_reliability(net, maintainer.tree());
  out.final_lifetime = wsn::network_lifetime(net, maintainer.tree());
  out.bound_met =
      wsn::meets_lifetime(net, maintainer.tree(), maintainer.lifetime_bound());

  static metrics::Counter& rounds_total = metrics::counter("dataplane.rounds");
  static metrics::Counter& degraded = metrics::counter("dataplane.degraded_events");
  static metrics::Counter& improved = metrics::counter("dataplane.improved_events");
  static metrics::Counter& repairs = metrics::counter("dataplane.repairs_applied");
  static metrics::Counter& detections = metrics::counter("dataplane.detections");
  static metrics::Counter& false_positives =
      metrics::counter("dataplane.false_positives");
  rounds_total.add(out.rounds);
  degraded.add(out.degraded_events);
  improved.add(out.improved_events);
  repairs.add(out.repairs_applied);
  detections.add(out.detections);
  false_positives.add(out.false_positive_events);
}

}  // namespace mrlc::dist::engine
