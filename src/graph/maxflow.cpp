#include "graph/maxflow.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace mrlc::graph {

MaxFlow::MaxFlow(int node_count, double epsilon)
    : node_count_(node_count), epsilon_(epsilon) {
  MRLC_REQUIRE(node_count >= 0, "node count must be non-negative");
  MRLC_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  reset_network(node_count);
}

int MaxFlow::add_arc(int from, int to, double capacity) {
  MRLC_REQUIRE(from >= 0 && from < node_count_, "arc source out of range");
  MRLC_REQUIRE(to >= 0 && to < node_count_, "arc target out of range");
  MRLC_REQUIRE(capacity >= 0.0, "capacity must be non-negative");
  const int fwd_index = degree_[static_cast<std::size_t>(from)]++;
  ++degree_[static_cast<std::size_t>(to)];
  pending_.push_back(PendingArc{from, to, capacity});
  return fwd_index;
}

void MaxFlow::add_undirected(int a, int b, double capacity) {
  // Two opposing arcs; each residual pair shares capacity via the reverse
  // entries created by add_arc, so this models an undirected edge exactly.
  add_arc(a, b, capacity);
  add_arc(b, a, capacity);
}

void MaxFlow::layout() {
  if (pending_.empty()) return;
  const auto n = static_cast<std::size_t>(node_count_);
  std::vector<int> first(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) first[v + 1] = first[v] + degree_[v];
  std::vector<Arc> arcs(static_cast<std::size_t>(first[n]));
  std::vector<double> original(arcs.size());
  // Arcs laid out before keep their offset within their node's range, so
  // every earlier `add_arc` index (and residual capacity) stays valid.
  std::vector<int> fill(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int old_begin = first_[v];
    const int old_end = first_[v + 1];
    for (int k = old_begin; k < old_end; ++k) {
      const Arc& a = arcs_[static_cast<std::size_t>(k)];
      const int to_begin = first_[static_cast<std::size_t>(a.to)];
      const auto at = static_cast<std::size_t>(first[v] + (k - old_begin));
      arcs[at] = Arc{a.to, first[static_cast<std::size_t>(a.to)] + (a.rev - to_begin),
                     a.capacity};
      original[at] = original_[static_cast<std::size_t>(k)];
    }
    fill[v] = first[v] + (old_end - old_begin);
  }
  // New arcs follow in add order: the forward entry, then its reverse.
  for (const PendingArc& p : pending_) {
    const int fwd = fill[static_cast<std::size_t>(p.from)]++;
    const int rev = fill[static_cast<std::size_t>(p.to)]++;
    arcs[static_cast<std::size_t>(fwd)] = Arc{p.to, rev, p.capacity};
    arcs[static_cast<std::size_t>(rev)] = Arc{p.from, fwd, 0.0};
    original[static_cast<std::size_t>(fwd)] = p.capacity;
    original[static_cast<std::size_t>(rev)] = 0.0;
  }
  first_ = std::move(first);
  arcs_ = std::move(arcs);
  original_ = std::move(original);
  // The build list is not kept beside the laid-out network.
  std::vector<PendingArc>().swap(pending_);
}

bool MaxFlow::build_levels(int source, int sink) {
  std::fill(level_.begin(), level_.end(), -1);
  const auto sink_at = static_cast<std::size_t>(sink);
  std::size_t head = 0;
  std::size_t tail = 0;
  level_[static_cast<std::size_t>(source)] = 0;
  queue_[tail++] = source;
  while (head < tail) {
    const int v = queue_[head++];
    const int next = level_[static_cast<std::size_t>(v)] + 1;
    // Once the sink is labelled, nodes at its level or deeper are dead ends
    // for `push` (levels only rise along a push path), so they need no
    // labelled successors; the queue is level-ordered, so stop here.
    if (level_[sink_at] != -1 && next > level_[sink_at]) break;
    const int end = first_[static_cast<std::size_t>(v) + 1];
    for (int i = first_[static_cast<std::size_t>(v)]; i < end; ++i) {
      const Arc& a = arcs_[static_cast<std::size_t>(i)];
      if (a.capacity > epsilon_ && level_[static_cast<std::size_t>(a.to)] == -1) {
        level_[static_cast<std::size_t>(a.to)] = next;
        queue_[tail++] = a.to;
      }
    }
  }
  return level_[sink_at] != -1;
}

double MaxFlow::push(int v, int sink, double limit) {
  if (v == sink || limit <= epsilon_) return limit;
  double sent = 0.0;
  const int next = level_[static_cast<std::size_t>(v)] + 1;
  const int end = first_[static_cast<std::size_t>(v) + 1];
  for (int& i = iter_[static_cast<std::size_t>(v)]; i < end; ++i) {
    Arc& a = arcs_[static_cast<std::size_t>(i)];
    if (a.capacity <= epsilon_ || level_[static_cast<std::size_t>(a.to)] != next) {
      continue;
    }
    const double pushed = push(a.to, sink, std::min(limit - sent, a.capacity));
    if (pushed > epsilon_) {
      a.capacity -= pushed;
      arcs_[static_cast<std::size_t>(a.rev)].capacity += pushed;
      sent += pushed;
      if (limit - sent <= epsilon_) break;
    }
  }
  return sent;
}

double MaxFlow::max_flow(int source, int sink) {
  MRLC_REQUIRE(source >= 0 && source < node_count_, "source out of range");
  MRLC_REQUIRE(sink >= 0 && sink < node_count_, "sink out of range");
  MRLC_REQUIRE(source != sink, "source and sink must differ");
  layout();
  double total = 0.0;
  while (build_levels(source, sink)) {
    std::copy(first_.begin(), first_.end() - 1, iter_.begin());
    double pushed = 0.0;
    do {
      pushed = push(source, sink, std::numeric_limits<double>::infinity());
      total += pushed;
    } while (pushed > epsilon_);
  }
  return total;
}

std::vector<int> MaxFlow::min_cut_source_side(int source) const {
  MRLC_REQUIRE(source >= 0 && source < node_count_, "source out of range");
  if (!pending_.empty()) {
    // Arcs added since the last layout: search a laid-out copy.
    MaxFlow laid_out = *this;
    laid_out.layout();
    return laid_out.min_cut_source_side(source);
  }
  std::vector<char> seen(static_cast<std::size_t>(node_count_), 0);
  // The output doubles as the BFS queue: `side[head..]` is the frontier.
  std::vector<int> side{source};
  seen[static_cast<std::size_t>(source)] = 1;
  for (std::size_t head = 0; head < side.size(); ++head) {
    const int v = side[head];
    const int end = first_[static_cast<std::size_t>(v) + 1];
    for (int i = first_[static_cast<std::size_t>(v)]; i < end; ++i) {
      const Arc& a = arcs_[static_cast<std::size_t>(i)];
      if (a.capacity > epsilon_ && seen[static_cast<std::size_t>(a.to)] == 0) {
        seen[static_cast<std::size_t>(a.to)] = 1;
        side.push_back(a.to);
      }
    }
  }
  return side;
}

void MaxFlow::reset() {
  layout();
  for (std::size_t i = 0; i < arcs_.size(); ++i) arcs_[i].capacity = original_[i];
}

void MaxFlow::set_arc_capacity(int from, int arc_index, double capacity) {
  MRLC_REQUIRE(from >= 0 && from < node_count_, "arc source out of range");
  MRLC_REQUIRE(arc_index >= 0 && arc_index < degree_[static_cast<std::size_t>(from)],
               "arc index out of range");
  MRLC_REQUIRE(capacity >= 0.0, "capacity must be non-negative");
  layout();
  const auto at = static_cast<std::size_t>(first_[static_cast<std::size_t>(from)] +
                                           arc_index);
  arcs_[at].capacity = capacity;
  original_[at] = capacity;
}

void MaxFlow::reset_network(int node_count) {
  MRLC_REQUIRE(node_count >= 0, "node count must be non-negative");
  node_count_ = node_count;
  const auto n = static_cast<std::size_t>(node_count);
  degree_.assign(n, 0);
  pending_.clear();
  first_.assign(n + 1, 0);
  arcs_.clear();
  original_.clear();
  level_.assign(n, -1);
  iter_.assign(n, 0);
  queue_.assign(n, 0);
}

}  // namespace mrlc::graph
