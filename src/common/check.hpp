#pragma once

/// \file check.hpp
/// \brief Precondition / invariant checking helpers shared by all modules.
///
/// The library follows the C++ Core Guidelines convention that broken
/// preconditions are programming errors: they throw `std::invalid_argument`
/// (bad caller input) or `std::logic_error` (broken internal invariant)
/// rather than returning sentinel values.

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mrlc {

/// Exception thrown when an algorithm detects that the requested problem
/// instance is structurally unsolvable (e.g. a disconnected topology or an
/// unachievable lifetime bound).  Distinct from precondition violations so
/// callers can recover from "no solution exists" without catching logic bugs.
class InfeasibleError : public std::runtime_error {
 public:
  explicit InfeasibleError(const std::string& what) : std::runtime_error(what) {}
};

/// Exception thrown inside the solver when a `Budget` (common/budget.hpp)
/// runs out before the algorithm converges.  Internal control flow only:
/// `core::solve` catches it and returns the best incumbent with a typed
/// status, so budget exhaustion never escapes the front door as an
/// exception.
class BudgetExhaustedError : public std::runtime_error {
 public:
  explicit BudgetExhaustedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Exception thrown inside the solver when an LP solve stops at a cap —
/// the cutting-plane round cap (`IraOptions::max_cut_rounds`) or the
/// simplex pivot cap — before it converges.  Internal control flow like
/// `BudgetExhaustedError`: `core::solve` turns it into
/// `SolveStatus::kNotConverged` with a seeded incumbent.
class NotConvergedError : public std::runtime_error {
 public:
  explicit NotConvergedError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_requires(std::string_view cond, std::string_view msg,
                                        std::string_view file, int line) {
  std::ostringstream os;
  os << "precondition failed: " << cond << " (" << msg << ") at " << file << ":" << line;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_ensures(std::string_view cond, std::string_view msg,
                                       std::string_view file, int line) {
  std::ostringstream os;
  os << "invariant failed: " << cond << " (" << msg << ") at " << file << ":" << line;
  throw std::logic_error(os.str());
}

}  // namespace detail

/// Check a caller-facing precondition; throws std::invalid_argument on failure.
#define MRLC_REQUIRE(cond, msg)                                          \
  do {                                                                   \
    if (!(cond)) ::mrlc::detail::throw_requires(#cond, msg, __FILE__, __LINE__); \
  } while (false)

/// Check an internal invariant / postcondition; throws std::logic_error.
#define MRLC_ENSURE(cond, msg)                                          \
  do {                                                                  \
    if (!(cond)) ::mrlc::detail::throw_ensures(#cond, msg, __FILE__, __LINE__); \
  } while (false)

}  // namespace mrlc
