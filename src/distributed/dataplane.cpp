#include "distributed/dataplane.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "distributed/des_engine.hpp"
#include "distributed/logical_process.hpp"

namespace mrlc::dist {

namespace {

/// The legacy serial round loop, kept as the parity oracle for the
/// sharded engine.  It drives the *same* per-entity handlers and
/// serial-checkpoint methods as `run_des`, in plain ascending-id loops
/// over all links and nodes with no pool and no shards — so any
/// divergence between the two engines is a bug in the sharding (link
/// ownership, per-shard event lists, windows), not in the physics.
void run_legacy(engine::SimState& s) {
  const bool oracle = s.options->repair == RepairMode::kOracle;
  const bool estimator = s.estimator_mode();
  while (!s.stopped && s.completed_rounds < s.options->rounds) {
    const int planned = s.plan_window();
    if (planned == 0) break;
    const int start = s.window_start;
    std::vector<LinkEvent>* churn_fired =
        oracle || estimator ? &s.fired_churn[0] : nullptr;
    std::vector<LinkEvent>* est_fired = estimator ? &s.fired_est[0] : nullptr;
    for (int k = 0; k < planned; ++k) {
      // 1. True link qualities drift; each link's channel follows.
      for (wsn::EdgeId e = 0; e < s.links; ++e) s.churn_link(e, churn_fired);
      // 2. Oracle repairs land before the round's convergecast, exactly
      // as in the event engine's split round.
      if (oracle) s.apply_oracle_events();
      // 3. One ARQ transaction per non-root member.
      for (wsn::VertexId v = 0; v < s.n; ++v) s.transact_node(v, k, est_fired);
      // 4. Probe beacons sample idle links so improvements are noticed.
      if (s.probing()) {
        for (wsn::EdgeId e = 0; e < s.links; ++e) {
          if (s.on_tree[static_cast<std::size_t>(e)]) continue;
          if (!s.net.topology().is_alive(e)) continue;
          s.probe_link(e, est_fired);
        }
      }
      if (estimator) s.apply_pending_marks(start + k);
    }
    s.commit_window(planned);
    // 5. Estimator events repair on the believed view, after the
    // window's readings/energy are committed against the tree they ran on.
    if (estimator) s.apply_estimator_events(start);
    s.end_window(planned);
  }
  s.finalize();
}

}  // namespace

DataPlaneResult run_dataplane(wsn::Network net, wsn::AggregationTree tree,
                              double lifetime_bound,
                              const DataPlaneOptions& options) {
  trace::ScopedPhase phase("dataplane");
  options.validate();
  options.arq.validate();
  const int shard_count =
      options.engine == DataPlaneEngine::kDes
          ? std::max(1, static_cast<int>(default_thread_count()))
          : 1;
  engine::SimState s(std::move(net), std::move(tree), lifetime_bound, options,
                     shard_count);
  if (options.engine == DataPlaneEngine::kDes) {
    engine::run_des(s);
  } else {
    run_legacy(s);
  }
  return s.out;
}

}  // namespace mrlc::dist
