#include "core/separation.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/faultpoint.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "graph/maxflow.hpp"

namespace mrlc::core {

namespace {

/// The support of one fractional point: its alive edges with x_e != 0, in
/// edge-id order.  A sum over this list equals, bit for bit, the same sum
/// over every alive edge in id order: the skipped terms are ±0.0, and a
/// running sum that starts at +0.0 is never -0.0, so adding ±0.0 to it
/// changes nothing.  A set weight then costs O(|S| + |supp|) and no
/// allocation.
class Support {
 public:
  struct Edge {
    graph::VertexId u;
    graph::VertexId v;
    double x;
  };

  Support(const graph::Graph& g, const std::vector<double>& edge_values)
      : in_set_(static_cast<std::size_t>(g.vertex_count()), 0) {
    const std::span<const graph::Edge> all = g.edges();
    for (graph::EdgeId id = 0; id < g.edge_count(); ++id) {
      if (!g.is_alive(id)) continue;
      const double x = edge_values[static_cast<std::size_t>(id)];
      const graph::Edge& e = all[static_cast<std::size_t>(id)];
      if (x != 0.0) edges_.push_back(Edge{e.u, e.v, x});
    }
  }

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// x(E(S)) for a subset without duplicates.
  double internal_weight(const std::vector<graph::VertexId>& subset) {
    for (graph::VertexId v : subset) in_set_[static_cast<std::size_t>(v)] = 1;
    double total = 0.0;
    for (const Edge& e : edges_) {
      if (in_set_[static_cast<std::size_t>(e.u)] != 0 &&
          in_set_[static_cast<std::size_t>(e.v)] != 0) {
        total += e.x;
      }
    }
    for (graph::VertexId v : subset) in_set_[static_cast<std::size_t>(v)] = 0;
    return total;
  }

  /// x(E(V)).
  double total_weight() const {
    double total = 0.0;
    for (const Edge& e : edges_) total += e.x;
    return total;
  }

 private:
  std::vector<Edge> edges_;
  std::vector<char> in_set_;  ///< membership marker, all zero between calls
};

}  // namespace

double subset_internal_weight(const graph::Graph& g,
                              const std::vector<double>& edge_values,
                              const std::vector<graph::VertexId>& subset) {
  return Support(g, edge_values).internal_weight(subset);
}

void SubtourCutPool::remember(const std::vector<graph::VertexId>& subset) {
  std::vector<graph::VertexId> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  if (!seen_.insert(sorted).second) return;
  for (graph::VertexId v : sorted) {
    if (static_cast<std::size_t>(v) >= appearances_.size()) {
      appearances_.resize(static_cast<std::size_t>(v) + 1, 0);
    }
    ++appearances_[static_cast<std::size_t>(v)];
  }
  sets_.push_back(std::move(sorted));
  evict_to_capacity();
}

void SubtourCutPool::set_capacity(std::size_t max_sets) {
  capacity_ = max_sets;
  evict_to_capacity();
}

void SubtourCutPool::evict_to_capacity() {
  if (capacity_ == 0) return;
  while (sets_.size() > capacity_) {
    const std::vector<graph::VertexId>& oldest = sets_.front();
    for (graph::VertexId v : oldest) {
      --appearances_[static_cast<std::size_t>(v)];
    }
    seen_.erase(oldest);
    sets_.erase(sets_.begin());
  }
}

std::vector<graph::VertexId> SubtourCutPool::hot_vertices(int vertex_count) const {
  std::vector<graph::VertexId> order(static_cast<std::size_t>(vertex_count));
  for (graph::VertexId v = 0; v < vertex_count; ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  auto count_of = [&](graph::VertexId v) -> long long {
    return static_cast<std::size_t>(v) < appearances_.size()
               ? appearances_[static_cast<std::size_t>(v)]
               : 0;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::VertexId a, graph::VertexId b) {
                     return count_of(a) > count_of(b);
                   });
  return order;
}

namespace {

constexpr double kForce = 1e12;

/// The Padberg–Wolsey auxiliary network for one fractional point, built
/// once and reused for a whole sweep of forced-in vertices: every vertex
/// gets a zero-capacity source arc up front, and per candidate exactly that
/// arc is raised to `kForce`, the flow is run, and the capacities are
/// restored — no per-candidate construction.
class SubtourSweepNetwork {
 public:
  SubtourSweepNetwork(int vertex_count, const Support& support)
      : n_(vertex_count), source_(n_), sink_(n_ + 1), flow_(n_ + 2) {
    // Fractional degree d_v = x(δ(v)); node weight w_v = d_v - 2.
    std::vector<double> degree(static_cast<std::size_t>(n_), 0.0);
    for (const Support::Edge& e : support.edges()) {
      degree[static_cast<std::size_t>(e.u)] += e.x;
      degree[static_cast<std::size_t>(e.v)] += e.x;
    }
    force_arc_.assign(static_cast<std::size_t>(n_), -1);
    for (graph::VertexId v = 0; v < n_; ++v) {
      const double w = degree[static_cast<std::size_t>(v)] - 2.0;
      if (w > 0.0) {
        flow_.add_arc(source_, v, w);
        positive_weight_total_ += w;
      } else if (w < 0.0) {
        flow_.add_arc(v, sink_, -w);
      }
      force_arc_[static_cast<std::size_t>(v)] = flow_.add_arc(source_, v, 0.0);
    }
    for (const Support::Edge& e : support.edges()) {
      if (e.x > 0.0) flow_.add_undirected(e.u, e.v, e.x);
    }
    flow_.reset();  // lays the arcs out now, so copies share one layout
  }

  /// min f(S) over all S containing `forced_in` (one max-flow).
  SeparationCut min_cut_containing(graph::VertexId forced_in) {
    static metrics::Counter& maxflow_calls =
        metrics::counter("separation.maxflow_calls");
    maxflow_calls.add();
    flow_.set_arc_capacity(source_, force_arc_[static_cast<std::size_t>(forced_in)],
                           kForce);
    const double cut = flow_.max_flow(source_, sink_);
    SeparationCut out;
    out.f_value = cut - positive_weight_total_;
    for (int v : flow_.min_cut_source_side(source_)) {
      if (v < n_) out.subset.push_back(v);
    }
    std::sort(out.subset.begin(), out.subset.end());
    flow_.set_arc_capacity(source_, force_arc_[static_cast<std::size_t>(forced_in)],
                           0.0);
    flow_.reset();
    return out;
  }

 private:
  int n_;
  int source_;
  int sink_;
  graph::MaxFlow flow_;
  std::vector<int> force_arc_;
  double positive_weight_total_ = 0.0;
};

}  // namespace

SeparationCut min_subtour_cut(const graph::Graph& g,
                              const std::vector<double>& edge_values,
                              graph::VertexId forced_in, graph::VertexId forced_out) {
  MRLC_REQUIRE(forced_in != forced_out, "forced vertices must differ");
  const int n = g.vertex_count();
  MRLC_REQUIRE(static_cast<int>(edge_values.size()) == g.edge_count(),
               "one value per edge");

  // Fractional degree d_v = x(δ(v)); node weight w_v = d_v - 2.
  std::vector<double> degree(static_cast<std::size_t>(n), 0.0);
  for (graph::EdgeId id : g.alive_edge_ids()) {
    const graph::Edge& e = g.edge(id);
    degree[static_cast<std::size_t>(e.u)] += edge_values[static_cast<std::size_t>(id)];
    degree[static_cast<std::size_t>(e.v)] += edge_values[static_cast<std::size_t>(id)];
  }

  // Auxiliary network: nodes 0..n-1 plus source n, sink n+1.
  const int source = n;
  const int sink = n + 1;
  graph::MaxFlow flow(n + 2);
  double positive_weight_total = 0.0;
  for (graph::VertexId v = 0; v < n; ++v) {
    const double w = degree[static_cast<std::size_t>(v)] - 2.0;
    if (w > 0.0) {
      flow.add_arc(source, v, w);
      positive_weight_total += w;
    } else if (w < 0.0) {
      flow.add_arc(v, sink, -w);
    }
  }
  flow.add_arc(source, forced_in, kForce);
  flow.add_arc(forced_out, sink, kForce);
  for (graph::EdgeId id : g.alive_edge_ids()) {
    const graph::Edge& e = g.edge(id);
    const double x = edge_values[static_cast<std::size_t>(id)];
    if (x > 0.0) flow.add_undirected(e.u, e.v, x);
  }

  static metrics::Counter& maxflow_calls =
      metrics::counter("separation.maxflow_calls");
  maxflow_calls.add();
  const double cut = flow.max_flow(source, sink);
  SeparationCut out;
  // min over S (u in, r out) of f(S) = cut - sum_v max(w_v, 0).
  out.f_value = cut - positive_weight_total;
  for (int v : flow.min_cut_source_side(source)) {
    if (v < n) out.subset.push_back(v);
  }
  std::sort(out.subset.begin(), out.subset.end());
  return out;
}

SeparationCut min_subtour_cut_containing(const graph::Graph& g,
                                         const std::vector<double>& edge_values,
                                         graph::VertexId forced_in) {
  MRLC_REQUIRE(static_cast<int>(edge_values.size()) == g.edge_count(),
               "one value per edge");
  MRLC_REQUIRE(forced_in >= 0 && forced_in < g.vertex_count(),
               "forced vertex out of range");
  SubtourSweepNetwork network(g.vertex_count(), Support(g, edge_values));
  return network.min_cut_containing(forced_in);
}

namespace {

/// Always-on validation of a set coming out of the cut pool: sorted,
/// strictly increasing (no duplicates), every vertex in range, |S| >= 2.
/// The pool stores sets in exactly this form, so a failure means the
/// memory was corrupted after `remember` — the caller falls back to the
/// pristine source rather than feeding a bad row to the LP.
bool pooled_set_ok(const std::vector<graph::VertexId>& subset, int n) {
  if (subset.size() < 2) return false;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (subset[i] < 0 || subset[i] >= n) return false;
    if (i > 0 && subset[i] <= subset[i - 1]) return false;
  }
  return true;
}

}  // namespace

std::vector<std::vector<graph::VertexId>> find_violated_subtours(
    const graph::Graph& g, const std::vector<double>& edge_values, double tolerance,
    SeparationMode mode, SubtourCutPool* pool, Budget* budget) {
  trace::ScopedPhase phase("separation");
  static metrics::Counter& calls = metrics::counter("separation.calls");
  static metrics::Counter& violated_sets =
      metrics::counter("separation.violated_sets");
  static metrics::Counter& pool_hits = metrics::counter("separation.pool_hits");
  calls.add();
  const int n = g.vertex_count();
  std::vector<std::vector<graph::VertexId>> result;
  if (n < 3) return result;  // |S| = 2 rows are the x_e <= 1 bounds

  Support support(g, edge_values);
  std::set<std::vector<graph::VertexId>> seen;
  // Every caller passes a sorted set: Stage 1 collects members in
  // ascending id, the pool stores sorted sets, and both cut functions sort
  // their subsets.
  auto consider = [&](const std::vector<graph::VertexId>& subset) {
    if (subset.size() < 2 || static_cast<int>(subset.size()) >= n) return false;
    const double internal = support.internal_weight(subset);
    if (internal <= static_cast<double>(subset.size()) - 1.0 + tolerance) {
      return false;
    }
    if (seen.insert(subset).second) {
      violated_sets.add();
      result.push_back(subset);
      return true;
    }
    return false;
  };
  // Every set handed back also enters the pool so later calls can recheck
  // it without a flow.
  auto finish = [&]() {
    if (pool) {
      for (const auto& subset : result) pool->remember(subset);
    }
    return std::move(result);
  };

  // Stage 1: connected components of the edges with x_e > tolerance,
  // labelled straight off the adjacency lists (which hold alive edges
  // only) in smallest-vertex order.
  {
    std::vector<int> label(static_cast<std::size_t>(n), -1);
    std::vector<graph::VertexId> frontier;
    frontier.reserve(static_cast<std::size_t>(n));
    int count = 0;
    for (graph::VertexId start = 0; start < n; ++start) {
      if (label[static_cast<std::size_t>(start)] != -1) continue;
      const int comp = count++;
      label[static_cast<std::size_t>(start)] = comp;
      frontier.assign(1, start);
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const graph::VertexId v = frontier[head];
        for (graph::EdgeId id : g.incident(v)) {
          if (!(edge_values[static_cast<std::size_t>(id)] > tolerance)) continue;
          const graph::VertexId w = g.edge(id).other(v);
          if (label[static_cast<std::size_t>(w)] == -1) {
            label[static_cast<std::size_t>(w)] = comp;
            frontier.push_back(w);
          }
        }
      }
    }
    if (count > 1) {
      std::vector<std::vector<graph::VertexId>> members(static_cast<std::size_t>(count));
      for (graph::VertexId v = 0; v < n; ++v) {
        members[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])].push_back(v);
      }
      for (const auto& subset : members) consider(subset);
    }
    if (!result.empty()) return finish();
  }

  // Stage 1.5: recheck pooled sets — an O(|supp|) sum per set against zero
  // max-flows.  Sets that separated an earlier fractional point of the
  // same instance frequently separate the next one too.
  // Each set is validated in place; only the fault point makes a copy.
  if (pool) {
    std::vector<graph::VertexId> corrupted;
    for (const auto& subset : pool->sets()) {
      const std::vector<graph::VertexId>* candidate = &subset;
      // Fault point: the pooled memory hands back a corrupted set (as a
      // buggy cross-iteration cache would).
      if (fault::fire("cutpool.corrupt") && !subset.empty()) {
        corrupted = subset;
        corrupted.push_back(corrupted.front());  // duplicate => invalid
        candidate = &corrupted;
      }
      if (!pooled_set_ok(*candidate, n)) {
        // Audited recovery: re-read the pristine pooled set; if even the
        // source fails validation, skip it — a dropped recheck only costs
        // a max-flow later, never a wrong row.
        if (candidate == &subset || !pooled_set_ok(subset, n)) continue;
        candidate = &subset;
        fault::note_recovered("cutpool.corrupt");
      }
      if (consider(*candidate)) {
        pool_hits.add();
        if (result.size() >= 4) break;
      }
    }
    if (!result.empty()) return finish();
  }
  if (mode == SeparationMode::kHeuristicOnly) return finish();

  // Stage 2: exact Padberg–Wolsey sweep.  With f(S) = 2(|S| - x(E(S))), a
  // point on the span hyperplane x(E(V)) = n - 1 has f(V) = 2 exactly, so
  // min_{S ∋ u} f(S) < 2 iff some proper S ∋ u is violated — one max-flow
  // per vertex, half the classic two-orientation sweep.  Off the span
  // hyperplane (x(E(V)) > n - 1: possible for arbitrary caller-supplied
  // points) S = V could mask proper violations, so fall back to the classic
  // sweep with a forced-out vertex.
  const bool on_span_hyperplane =
      support.total_weight() <= static_cast<double>(n - 1) + tolerance;

  struct Candidate {
    graph::VertexId u;
    bool u_inside;  ///< classic sweep only: u forced in (else forced out)
  };
  std::vector<Candidate> candidates;
  if (on_span_hyperplane) {
    // Sweep order: historically hot vertices first (identity order for an
    // empty/absent pool) so the early exit below triggers sooner.  The
    // order is a deterministic function of the pool contents, which are in
    // turn deterministic — thread counts never change the candidate set.
    const std::vector<graph::VertexId> order =
        pool ? pool->hot_vertices(n) : std::vector<graph::VertexId>{};
    candidates.reserve(static_cast<std::size_t>(n));
    for (graph::VertexId i = 0; i < n; ++i) {
      candidates.push_back({pool ? order[static_cast<std::size_t>(i)] : i, true});
    }
  } else {
    // Classic sweep: fix r = 0; any proper nonempty S either avoids r
    // (forced_in = u, forced_out = r) or contains it (forced_in = r,
    // forced_out = u).
    candidates.reserve(static_cast<std::size_t>(2 * (n - 1)));
    for (graph::VertexId u = 1; u < n; ++u) {
      candidates.push_back({u, true});
      candidates.push_back({u, false});
    }
  }

  // The candidates are independent max-flow problems, evaluated in
  // constant-size batches on the thread pool and merged serially in
  // candidate order.  The early-exit ("enough cuts, stop sweeping") is only
  // checked at batch boundaries; because the batch size is a constant — not
  // a function of the pool width — the set of candidates evaluated, the
  // cuts returned, and the `separation.maxflow_calls` counter are identical
  // for every thread count.
  constexpr std::size_t kBatch = 8;  // thread-count independent by design
  const graph::VertexId r = 0;
  std::vector<SeparationCut> slots(kBatch);
  // One reusable network per batch slot: capacities are reset between
  // candidates instead of rebuilding the arc lists (slot i only ever runs
  // one candidate at a time, so the parallel batch stays race-free).  The
  // network is built once and copied into the other slots.
  std::vector<SubtourSweepNetwork> networks;
  if (on_span_hyperplane) {
    const std::size_t slot_count = std::min(kBatch, candidates.size());
    networks.reserve(slot_count);
    networks.emplace_back(n, support);
    while (networks.size() < slot_count) networks.push_back(networks.front());
  }
  std::vector<char> failed(kBatch, 0);
  for (std::size_t start = 0; start < candidates.size(); start += kBatch) {
    // Deterministic budget checkpoint: batch boundaries are a serial
    // function of the candidate list, never of thread scheduling.  Cutting
    // the sweep short returns whatever was found so far; the caller treats
    // an empty result under an exhausted budget as "not certified".
    if (budget != nullptr && budget->exhausted()) break;
    const std::size_t end = std::min(start + kBatch, candidates.size());
    const int batch_size = static_cast<int>(end - start);
    std::fill(failed.begin(), failed.end(), 0);
    default_pool().for_each(batch_size, [&](int i) {
      // Fault point: a worker task dies outright.  No recovery here — the
      // pool rethrows from the smallest failing index, and the error
      // surfaces as a typed internal failure (exit code 5 in mrlc_solve).
      if (fault::fire("parallel.task_fail")) {
        throw std::runtime_error(
            "injected: thread-pool task failure (fault parallel.task_fail)");
      }
      // Fault point: one max-flow evaluation fails (fired before the solve
      // so the retry below keeps separation.maxflow_calls at one per
      // candidate).  The slot is marked and recomputed serially at merge.
      if (fault::fire("separation.flow_fail")) {
        failed[static_cast<std::size_t>(i)] = 1;
        return;
      }
      const Candidate& c = candidates[start + static_cast<std::size_t>(i)];
      if (on_span_hyperplane) {
        slots[static_cast<std::size_t>(i)] =
            networks[static_cast<std::size_t>(i)].min_cut_containing(c.u);
      } else {
        slots[static_cast<std::size_t>(i)] =
            c.u_inside ? min_subtour_cut(g, edge_values, c.u, r)
                       : min_subtour_cut(g, edge_values, r, c.u);
      }
    });
    // One budget unit per candidate, charged at this serial merge point so
    // exhaustion happens at the same sweep position for every thread count.
    if (budget != nullptr) budget->charge(batch_size);
    for (int i = 0; i < batch_size; ++i) {
      SeparationCut& cut = slots[static_cast<std::size_t>(i)];
      if (failed[static_cast<std::size_t>(i)] != 0) {
        // Audited recovery: rebuild the auxiliary network from the support
        // and re-run the candidate serially.  The retried flow is exact,
        // so a recovered sweep returns the same cuts as a clean one.
        const Candidate& c = candidates[start + static_cast<std::size_t>(i)];
        if (on_span_hyperplane) {
          SubtourSweepNetwork retry(n, support);
          cut = retry.min_cut_containing(c.u);
        } else {
          cut = c.u_inside ? min_subtour_cut(g, edge_values, c.u, r)
                           : min_subtour_cut(g, edge_values, r, c.u);
        }
        fault::note_recovered("separation.flow_fail");
      }
      if (cut.f_value < 2.0 - tolerance) consider(cut.subset);
    }
    // A couple of cuts per round is enough to make progress; adding every
    // violated set found by the sweep bloats the LP with near-duplicates.
    if (result.size() >= 4) break;
  }
  return finish();
}

}  // namespace mrlc::core
