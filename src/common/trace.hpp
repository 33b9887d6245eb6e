#pragma once

/// \file trace.hpp
/// \brief RAII scoped phase timers feeding the metrics registry.
///
/// A `ScopedPhase` measures the steady-clock wall time between its
/// construction and destruction and accumulates it into a node of the
/// process-wide phase tree (`metrics::PhaseNode`).  Nesting is automatic
/// via a thread-local cursor: a `ScopedPhase("lp")` opened while
/// `ScopedPhase("ira")` is active records under the path `ira/lp`.  The
/// same phase name under the same parent shares one accumulator across
/// calls and threads, so per-phase totals aggregate naturally over a whole
/// run (or a whole `ThreadPool::for_each` fan-out).
///
///     void IterativeRelaxation::solve(...) {
///       trace::ScopedPhase phase("ira");          // path: ira
///       ...
///       { trace::ScopedPhase lp("cut_lp"); ... }  // path: ira/cut_lp
///     }
///
/// Overhead: two `steady_clock::now()` calls plus two relaxed atomic adds
/// per scope while metrics are enabled; a single relaxed load (or nothing,
/// under `MRLC_METRICS_DISABLED`) while disabled.  Intended for phases
/// entered at most a few thousand times per second — wrap the cut loop,
/// not the pivot.
///
/// The timers deliberately tolerate the enable flag flipping mid-scope: a
/// scope opened while disabled never records, a scope opened while enabled
/// records even if recording is disabled before it closes (its node
/// pointer is already resolved, so this is safe and keeps totals
/// consistent with counts).

#include <chrono>
#include <string_view>

#include "common/metrics.hpp"

namespace mrlc::trace {

/// \brief RAII wall-time measurement of one phase entry (see file comment).
class ScopedPhase {
 public:
  /// \brief Opens the phase `name` under the thread's current phase.
  /// \param name  path segment ("ira", "cut_lp"); must not contain '/'.
  explicit ScopedPhase(std::string_view name);

  /// \brief Closes the phase: accumulates elapsed time and pops the cursor.
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  metrics::PhaseNode* node_ = nullptr;
  metrics::PhaseNode* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Plain steady-clock stopwatch for callers that want a duration as
/// a value (bench runners) rather than a registry entry.  Unaffected by the
/// metrics enable flag.
class Stopwatch {
 public:
  /// \brief Starts timing at construction.
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// \return wall milliseconds elapsed since construction or the last
  ///         restart().
  double elapsed_ms() const;

  /// \brief Resets the start point to now.
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mrlc::trace
