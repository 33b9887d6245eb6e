#pragma once

/// \file budget.hpp
/// \brief Cooperative cancellation / resource-budget token for the solver.
///
/// A `Budget` is threaded (as a nullable pointer in the options structs)
/// through every long-running loop in the solver: simplex pivots, the
/// cutting-plane rounds, separation sweeps, IRA outer iterations,
/// branch-and-bound waves, and data-plane rounds.  It carries up to three
/// independent stop conditions:
///
/// * a **work-unit limit** — deterministic, used by tests and the anytime
///   acceptance gates.  One unit is one simplex pivot or one separation
///   max-flow; branch-and-bound charges its explored-node totals at wave
///   boundaries.  Because every `charge` happens at a *serial* checkpoint
///   (pivot loops are single-threaded; parallel stages charge at their
///   serial merge points with constant batch sizes), the exhaustion point
///   is a pure function of the instance — identical for every thread
///   count;
/// * a **wall-clock deadline** — for production callers (`--deadline-ms`).
///   The steady clock is only consulted every `kDeadlineStride` charges so
///   the per-pivot cost stays a couple of arithmetic ops;
/// * an external **cancel flag** — flipped from any thread via `cancel()`.
///
/// The token never throws by itself.  Loops poll `exhausted()` (or the
/// return value of `charge`) at their deterministic checkpoints and unwind
/// through their own typed paths (`lp::SolveStatus::kInterrupted`,
/// `BudgetExhaustedError`), which `core::solve` (`core/solve.hpp`)
/// converts into a typed status plus the best incumbent — never an
/// exception at the public API.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace mrlc {

class Budget {
 public:
  Budget() = default;
  // Atomic members make the token immovable; share it by pointer (that is
  // how the options structs carry it anyway).
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Caps the total chargeable work at `units` (>= 0).  Zero is a *hard*
  /// zero: the token reports `exhausted()` immediately, before any charge,
  /// so callers that check at their entry checkpoint (the IRA outer loop,
  /// the cut loop) never start the work — `core::solve` then returns
  /// the seeded incumbent with zero units used.  Unset by default
  /// (unlimited).
  void set_work_limit(std::int64_t units) {
    work_limit_ = units < 0 ? -1 : units;
    if (work_limit_ == 0) exhausted_.store(true, std::memory_order_relaxed);
  }

  /// Sets the deadline to `ms` milliseconds from now.  Like the hard-zero
  /// work limit, `ms <= 0` means "already expired": the token is exhausted
  /// before any work runs instead of after the first clock-poll stride.
  void set_deadline_ms(std::int64_t ms) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    has_deadline_ = true;
    if (ms <= 0) exhausted_.store(true, std::memory_order_relaxed);
  }

  /// Requests cooperative cancellation; safe from any thread.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Records `n` units of completed work and re-evaluates the stop
  /// conditions.  \return true while the budget still has headroom; false
  /// once exhausted or cancelled (sticky).  Call only from deterministic
  /// serial checkpoints — never from inside a parallel region.
  bool charge(std::int64_t n = 1) {
    const std::int64_t used =
        used_.fetch_add(n, std::memory_order_relaxed) + n;
    if (work_limit_ >= 0 && used > work_limit_) {
      exhausted_.store(true, std::memory_order_relaxed);
    } else if (has_deadline_ && used / kDeadlineStride !=
                                    (used - n) / kDeadlineStride) {
      if (std::chrono::steady_clock::now() >= deadline_) {
        exhausted_.store(true, std::memory_order_relaxed);
      }
    }
    return !exhausted();
  }

  /// True once the work limit is overrun, the deadline has passed (as
  /// observed by a prior `charge`), or `cancel()` was called.  Cheap: two
  /// relaxed atomic loads, no clock read.
  bool exhausted() const noexcept {
    return exhausted_.load(std::memory_order_relaxed) || cancelled();
  }

  /// Units charged so far (diagnostics).
  std::int64_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }

  std::int64_t work_limit() const noexcept { return work_limit_; }
  bool has_deadline() const noexcept { return has_deadline_; }

 private:
  /// Clock-poll stride: the deadline is checked once per this many charged
  /// units, bounding the charge cost between polls to pure arithmetic.
  static constexpr std::int64_t kDeadlineStride = 64;

  std::atomic<std::int64_t> used_{0};
  std::int64_t work_limit_ = -1;  ///< -1 = unlimited
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> exhausted_{false};
  std::atomic<bool> cancelled_{false};
};

}  // namespace mrlc
