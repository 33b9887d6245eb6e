#pragma once
/// \file stats.hpp
/// \brief Sample statistics, the metric report, and process measurements
/// shared by the benchmark workloads.

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (numpy's default) of `samples`, q in [0, 1].
/// Returns 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

/// \return the highest of p90/p99 that has at least ten samples beyond it,
/// as {label, value}; label is empty when not even p90 qualifies.
std::pair<std::string, double> tail_percentile(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.  `metrics` holds the end-to-end
/// metrics in an untraced run and the per-layer metrics in a traced run;
/// `context` is printed beside them (pool width, sample counts, tails).
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;

  /// Counts one checked operation; a non-empty `error` marks it failed.
  void count(const std::string& error);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// JSON string literal for `s`.
std::string json_quote(const std::string& s);
/// Round-tripping decimal form of `v` (%.17g; JSON has no NaN/Inf: null).
std::string json_number(double v);

/// Set-up time sampled all through a run.  The host's speed changes in
/// phases that last seconds, so set-ups timed back to back all fall in one
/// phase and their median jumps between phases from run to run.  A workload
/// instead times set-ups in every gap between its operations and reports
/// the fastest: the set-up's cost in the host's fastest phase of the run.
class SetupClock {
 public:
  /// `gap_s` is the least time one gap spends on set-ups; a short set-up
  /// repeats within it.
  explicit SetupClock(double gap_s = 0.025) : gap_s_(gap_s) {}

  /// Times calls of `make` for at least the gap, at least once; each
  /// result is destroyed outside the timed region.  \return the seconds
  /// the gap took, for the caller to leave out of its measuring window.
  template <typename Make>
  double sample(Make&& make) {
    const double begin = now_s();
    do {
      const double start = now_s();
      const auto made = make();
      times_.push_back(now_s() - start);
    } while (now_s() - begin < gap_s_);
    return now_s() - begin;
  }

  double fastest_s() const;
  double median_s() const { return quantile(times_, 0.5); }
  std::size_t samples() const { return times_.size(); }

 private:
  double gap_s_;
  std::vector<double> times_;
};

/// Sets `setup_s` to the fastest set-up and records the sample count and
/// the median in the context line.
inline void report_setup(Report& report, const SetupClock& clock) {
  report.set("setup_s", clock.fastest_s(), "s");
  report.context["setup_samples"] = std::to_string(clock.samples());
  report.context["setup_s_median"] = json_number(clock.median_s());
}

}  // namespace perfbench
