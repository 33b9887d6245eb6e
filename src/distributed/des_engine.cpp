#include "distributed/des_engine.hpp"

#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace mrlc::dist::engine {

void run_des(SimState& s) {
  s.parallel_commit = true;
  const int shards = s.shard_count;
  const bool oracle = s.options->repair == RepairMode::kOracle;
  const bool estimator = s.estimator_mode();

  // Static assignment: shard i owns the contiguous node range
  // [n*i/shards, n*(i+1)/shards) and collects its fired events in
  // `fired_*[i]`.  Each shard runs rounds [0, rounds) of the window, and
  // within a round its nodes in ascending id: the (time, node) order of
  // the per-node round events, so no queue is needed.
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

  while (!s.stopped && s.completed_rounds < s.options->rounds) {
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
    if (estimator) s.apply_estimator_events(start);

    const long long wakes = wakes_per_round * planned;
    scheduled.add(wakes);
    processed.add(wakes);
    windows.add(1);
    // The commit, plus the repair checkpoint in either repair mode.
    checkpoints.add(oracle || estimator ? 2 : 1);
    // Every node's next wake is at the next round's first slot.
    safe_gauge.set(static_cast<double>(
        static_cast<SlotTime>(start + planned) * s.round_span));

    s.end_window(planned);
  }
  s.finalize();
}

}  // namespace mrlc::dist::engine
