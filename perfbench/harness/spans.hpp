#pragma once
/// \file spans.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// The benchmark opens a span around each call it makes into a layer
/// (scenario, baselines, core, prufer, distributed, service, wire).  Time
/// the program spends inside a layer that the benchmark cannot reach from
/// outside (separation, simplex, the service queue) is added as child spans
/// built from what the program reports: the metrics registry's phase
/// totals, or the queue/solve times in a service reply.  Spans stay in
/// memory until `write_chrome_json` writes them as Chrome trace events.
///
/// A span's layer is its name up to the first '.', and a layer's self time
/// is the duration of its spans minus the part their direct children cover.

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer was created
    double end_us = 0.0;
    long id = 0;
    long parent = -1;       ///< -1 for a root span
    long op = -1;           ///< operation id shared by one request's spans
    int thread = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since the tracer was created.
  double now_us() const;
  /// Opens a span under the calling thread's innermost open span.
  long open(const std::string& name, long op);
  /// Closes span `id`, which must be the calling thread's innermost one.
  void close(long id);
  /// Records a finished span with explicit times.
  long add(const std::string& name, long parent, double start_us,
           double end_us, long op);

  std::vector<Span> spans() const;
  /// Self time per layer over all spans, in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Writes the spans as a Chrome trace-event document; `context` lands
  /// in its `metadata` object.  \return false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& context) const;

 private:
  double origin_us_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_; indexed by span id
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, long op = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, op) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  long id_;
};

}  // namespace perfbench
