#pragma once

/// \file des_engine.hpp
/// \brief Conservative parallel driver of the data plane: a sharded
/// (round, node) sweep.
///
/// Each worker shard owns a contiguous range of nodes.  Virtual time is
/// counted in ARQ slots; round r spans `[r * span, (r + 1) * span)` with
/// `span = slots_per_round(policy)`.  Because a transaction occupies at
/// least one slot of transmission delay, nothing a node does in round r
/// can influence state another node reads before slot `(r + 1) * span` —
/// that delay is the engine's *lookahead*.  The driver therefore advances
/// all shards in bounded windows: every shard runs
/// `for round in window: for v in [lo, hi)` — node v's round body
/// (`SimState::node_round`) — on the pool, then a single serial
/// checkpoint merges the fired events in link-id order, commits readings,
/// energy, and counters, and charges the cooperative `Budget`.  Every
/// node has exactly one wake per round at a fixed slot offset, so the
/// sweep visits them in exactly the `(timestamp, node)` order an event
/// queue would pop them in; the safe time after a window is its end,
/// `(start + planned) * span`.
///
/// Window width: `options.window_rounds` in `kNone` mode (no repairs, so
/// lookahead spans the whole window); 1 in the repair modes (a repair
/// committed at round r's checkpoint changes what round r+1 reads).
/// `kOracle` additionally splits each round at the repair barrier: the
/// churn sweep runs first, the maintainer applies the fired events
/// serially, then the transaction sweep runs — matching the legacy loop,
/// where oracle repairs take effect within the same round.
///
/// Determinism: every draw comes from a per-entity forked stream, all
/// cross-shard merges happen at the serial checkpoints in a canonical
/// order, and the commit map's floating-point grouping depends only on
/// `n` — so the result is bit-identical for every shard/thread count,
/// which the `test_des` parity suite asserts.

#include "distributed/logical_process.hpp"

namespace mrlc::dist::engine {

/// Runs `s` to completion on the default thread pool.  One shard per
/// worker; with one worker the engine degenerates to a serial sweep and
/// still produces the same bits.
void run_des(SimState& s);

}  // namespace mrlc::dist::engine
