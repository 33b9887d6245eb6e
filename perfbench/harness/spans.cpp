#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small stable per-thread number for the trace viewer's rows.
int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

/// The calling thread's open spans, innermost last.
std::vector<long>& open_stack() {
  thread_local std::vector<long> stack;
  return stack;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer() : origin_us_(steady_us()) {}

double Tracer::now_us() const { return steady_us() - origin_us_; }

long Tracer::open(const std::string& name, long op) {
  std::vector<long>& stack = open_stack();
  const double start = now_us();
  const long parent = stack.empty() ? -1 : stack.back();
  const long id = add(name, parent, start, start, op);
  stack.push_back(id);
  return id;
}

void Tracer::close(long id) {
  const double end = now_us();
  std::vector<long>& stack = open_stack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

long Tracer::add(const std::string& name, long parent, double start_us,
                 double end_us, long op) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.id = static_cast<long>(spans_.size());
  span.parent = parent;
  span.op = op;
  span.thread = thread_number();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_us(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : all) {
    const double self_us = std::max(
        0.0, s.end_us - s.start_us - child_us[static_cast<std::size_t>(s.id)]);
    self_ms[layer_of(s.name)] += self_us / 1000.0;
  }
  return self_ms;
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& context) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "" : ",\n") << "{\"name\": " << json_quote(s.name)
        << ", \"cat\": " << json_quote(layer_of(s.name))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
    first = false;
  }
  out << "\n], \"metadata\": {";
  first = true;
  for (const auto& [key, value] : context) {
    out << (first ? "" : ", ") << json_quote(key) << ": " << json_quote(value);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
