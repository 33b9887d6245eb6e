#include "distributed/dataplane.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "distributed/logical_process.hpp"

namespace mrlc::dist {

// The engine is a conservative parallel sweep over statically sharded
// node ranges.  Virtual time is counted in ARQ slots; round r spans
// `[r * span, (r + 1) * span)` with `span = slots_per_round(policy)`.
// Because a transaction occupies at least one slot of transmission delay,
// nothing a node does in round r can influence state another node reads
// before slot `(r + 1) * span` — that delay is the engine's *lookahead*.
// The driver therefore advances all shards in bounded windows: every
// shard runs `for round in window: for v in [lo, hi)` — node v's round
// body (`SimState::node_round`) — on the pool, then a single serial
// checkpoint merges the fired events in link-id order, commits readings,
// energy, and counters, and charges the cooperative `Budget`.  Every
// node has exactly one wake per round at a fixed slot offset, so the
// sweep visits them in exactly the `(timestamp, node)` order an event
// queue would pop them in; the safe time after a window is its end,
// `(start + planned) * span`.
//
// Window width: `options.window_rounds` in `kNone` mode (no repairs, so
// lookahead spans the whole window); 1 in the repair modes (a repair
// committed at round r's checkpoint changes what round r+1 reads).
// `kOracle` additionally splits each round at the repair barrier: the
// churn sweep runs first, the maintainer applies the fired events
// serially, then the transaction sweep runs, so oracle repairs take
// effect within the same round.
//
// Determinism: every draw comes from a per-entity forked stream, all
// cross-shard merges happen at the serial checkpoints in a canonical
// order, and the commit map's floating-point grouping depends only on
// `n` — so the result is bit-identical for every shard/thread count,
// which the `test_des` golden digests assert at 1 and 8 threads.
DataPlaneResult run_dataplane(wsn::Network net, wsn::AggregationTree tree,
                              double lifetime_bound,
                              const DataPlaneOptions& options) {
  trace::ScopedPhase phase("dataplane");
  options.validate();
  options.arq.validate();
  engine::SimState s(std::move(net), std::move(tree), lifetime_bound, options,
                     std::max(1, static_cast<int>(default_thread_count())));
  const int shards = s.shard_count;
  const bool oracle = options.repair == RepairMode::kOracle;
  const bool estimator = s.estimator_mode();

  // Static assignment: shard i owns the contiguous node range
  // [n*i/shards, n*(i+1)/shards) and collects its fired events in
  // `fired_*[i]`.  Each shard runs rounds [0, rounds) of the window, and
  // within a round its nodes in ascending id: the (time, node) order of
  // the per-node round events, so no queue is needed.  With one worker
  // the sweep runs inline and still produces the same bits.
  auto sweep = [&](int rounds, auto&& body) {
    default_pool().for_each(shards, [&](int i) {
      const auto lo = static_cast<wsn::VertexId>(
          static_cast<long long>(s.n) * i / shards);
      const auto hi = static_cast<wsn::VertexId>(
          static_cast<long long>(s.n) * (i + 1) / shards);
      for (int k = 0; k < rounds; ++k) {
        for (wsn::VertexId v = lo; v < hi; ++v) body(v, k, i);
      }
    });
  };
  auto fired = [](std::vector<std::vector<LinkEvent>>& lists, int i) {
    return &lists[static_cast<std::size_t>(i)];
  };

  // Instruments are advanced once per window (before the flush point), so
  // in-flight snapshots show live progress.  Each node wakes once per
  // round (twice under oracle repair: churn, then transaction), and
  // every wake schedules its successor — so the values are functions of
  // n and the round count alone, never of the thread count.
  static metrics::Counter& scheduled =
      metrics::counter("dataplane.events_scheduled");
  static metrics::Counter& processed =
      metrics::counter("dataplane.events_processed");
  static metrics::Counter& windows = metrics::counter("des.windows");
  static metrics::Counter& checkpoints = metrics::counter("des.checkpoints");
  metrics::Gauge& window_gauge = metrics::gauge("des.window_rounds");
  metrics::Gauge& safe_gauge = metrics::gauge("des.safe_time");
  window_gauge.set(static_cast<double>(s.window_rounds));
  const long long wakes_per_round = static_cast<long long>(s.n) * (oracle ? 2 : 1);
  scheduled.add(wakes_per_round);  // the seeds of round 0

  while (!s.stopped && s.completed_rounds < options.rounds) {
    const int planned = s.plan_window();
    if (planned == 0) break;
    const int start = s.window_start;
    if (oracle) {
      // planned == 1: split the round at the repair barrier.
      sweep(1, [&](wsn::VertexId v, int, int i) {
        s.churn_owned(v, fired(s.fired_churn, i));
      });
      s.apply_oracle_events();
      sweep(1, [&](wsn::VertexId v, int k, int) {
        s.transact_node(v, k, nullptr);
      });
    } else {
      sweep(planned, [&](wsn::VertexId v, int k, int i) {
        s.node_round(v, k, estimator ? fired(s.fired_churn, i) : nullptr,
                     estimator ? fired(s.fired_est, i) : nullptr);
      });
      if (estimator) s.apply_pending_marks(start);
    }
    s.commit_window(planned);
    // Estimator events repair on the believed view, after the window's
    // readings/energy are committed against the tree they ran on.
    if (estimator) s.apply_estimator_events(start);

    const long long wakes = wakes_per_round * planned;
    scheduled.add(wakes);
    processed.add(wakes);
    windows.add(1);
    // The commit, plus the repair checkpoint in either repair mode.
    checkpoints.add(oracle || estimator ? 2 : 1);
    // Every node's next wake is at the next round's first slot.
    safe_gauge.set(static_cast<double>(
        static_cast<engine::SlotTime>(start + planned) * s.round_span));

    s.end_window(planned);
  }
  s.finalize();
  return s.out;
}

}  // namespace mrlc::dist
