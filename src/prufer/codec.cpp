#include "prufer/codec.hpp"

#include <queue>

namespace mrlc::prufer {

namespace {

/// Throws unless every parent walk ends at a -1 (entries must already be
/// in range).  Each walk stamps the nodes it passes with its start label
/// and stops at the first node an earlier walk stamped — that walk
/// reached a -1, so this one does too — making the check O(n) in total.
/// Meeting its own stamp again means the walk went round a cycle.
void require_acyclic(const ParentArray& parent) {
  std::vector<int> stamp(parent.size(), -1);
  for (int v = 0; v < static_cast<int>(parent.size()); ++v) {
    for (int w = v; w != -1; w = parent[static_cast<std::size_t>(w)]) {
      int& mark = stamp[static_cast<std::size_t>(w)];
      MRLC_REQUIRE(mark != v, "parent array contains a cycle");
      if (mark >= 0) break;
      mark = v;
    }
  }
}

}  // namespace

void validate_parent_array(const ParentArray& parent) {
  const int n = static_cast<int>(parent.size());
  MRLC_REQUIRE(n >= 1, "tree needs at least one node");
  MRLC_REQUIRE(parent[0] == -1, "node 0 must be the root (parent -1)");
  for (int v = 1; v < n; ++v) {
    MRLC_REQUIRE(parent[static_cast<std::size_t>(v)] >= 0 &&
                     parent[static_cast<std::size_t>(v)] < n,
                 "non-root parent out of range");
    MRLC_REQUIRE(parent[static_cast<std::size_t>(v)] != v, "node cannot parent itself");
  }
  require_acyclic(parent);
}

void validate_forest(const ParentArray& parent) {
  const int n = static_cast<int>(parent.size());
  MRLC_REQUIRE(n >= 1, "tree needs at least one node");
  MRLC_REQUIRE(parent[0] == -1, "node 0 must be the root (parent -1)");
  for (int v = 1; v < n; ++v) {
    const int p = parent[static_cast<std::size_t>(v)];
    MRLC_REQUIRE(p >= -1 && p < n, "parent out of range");
    MRLC_REQUIRE(p != v, "node cannot parent itself");
  }
  require_acyclic(parent);
}

Code encode(const ParentArray& parent) {
  validate_parent_array(parent);
  const int n = static_cast<int>(parent.size());
  MRLC_REQUIRE(n >= 2, "Prüfer encoding needs at least two nodes");

  // degree[] counts children + (1 if non-root); a current leaf has degree 1
  // and is non-root (the root, label 0, is never the largest leaf while the
  // loop runs, but excluding it keeps the heap logic simple).
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (int v = 1; v < n; ++v) {
    ++degree[static_cast<std::size_t>(v)];
    ++degree[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
  }

  std::priority_queue<int> leaves;  // max-heap of current leaf labels
  for (int v = 1; v < n; ++v) {
    if (degree[static_cast<std::size_t>(v)] == 1) leaves.push(v);
  }

  Code code;
  code.reserve(static_cast<std::size_t>(n - 2));
  for (int step = 0; step < n - 2; ++step) {
    MRLC_ENSURE(!leaves.empty(), "tree ran out of leaves before n-2 removals");
    const int leaf = leaves.top();
    leaves.pop();
    const int p = parent[static_cast<std::size_t>(leaf)];
    code.push_back(p);
    degree[static_cast<std::size_t>(leaf)] = 0;
    if (--degree[static_cast<std::size_t>(p)] == 1 && p != 0) leaves.push(p);
  }
  return code;
}

std::vector<int> decode_sequence(const Code& code, int node_count) {
  MRLC_REQUIRE(node_count >= 2, "decoding needs at least two nodes");
  MRLC_REQUIRE(static_cast<int>(code.size()) == node_count - 2,
               "code length must be n-2");
  for (int p : code) {
    MRLC_REQUIRE(p >= 0 && p < node_count, "code entry out of range");
  }

  // remaining[v]: occurrences of v still ahead in the code.  A label is a
  // candidate for removal once it no longer appears ahead and has not been
  // removed yet; we always take the largest candidate (Line 4).
  std::vector<int> remaining(static_cast<std::size_t>(node_count), 0);
  for (int p : code) ++remaining[static_cast<std::size_t>(p)];

  std::priority_queue<int> candidates;
  std::vector<bool> assigned(static_cast<std::size_t>(node_count), false);
  for (int v = 1; v < node_count; ++v) {  // the sink is never removed
    if (remaining[static_cast<std::size_t>(v)] == 0) candidates.push(v);
  }

  std::vector<int> sequence;
  sequence.reserve(static_cast<std::size_t>(node_count));
  for (int p : code) {
    MRLC_ENSURE(!candidates.empty(), "malformed code: no removable label");
    const int u = candidates.top();
    candidates.pop();
    assigned[static_cast<std::size_t>(u)] = true;
    sequence.push_back(u);
    if (--remaining[static_cast<std::size_t>(p)] == 0 && p != 0 &&
        !assigned[static_cast<std::size_t>(p)]) {
      candidates.push(p);
    }
  }
  // Final edge: the largest never-assigned non-sink label joins the sink.
  // (Algorithm 3 appends p_{n-2} here, which coincides whenever p_{n-2} is
  // not the sink; this form is correct for all trees — see codec.hpp.)
  MRLC_ENSURE(!candidates.empty(), "malformed code: no survivor for the last edge");
  sequence.push_back(candidates.top());
  sequence.push_back(0);
  return sequence;
}

ParentArray decode(const Code& code, int node_count) {
  const std::vector<int> seq = decode_sequence(code, node_count);
  ParentArray parent(static_cast<std::size_t>(node_count), -1);
  for (std::size_t i = 0; i + 2 < seq.size(); ++i) {
    parent[static_cast<std::size_t>(seq[i])] = code[i];
  }
  parent[static_cast<std::size_t>(seq[seq.size() - 2])] = 0;
  parent[0] = -1;
  validate_parent_array(parent);
  return parent;
}

int children_from_code(const Code& code, int node_count, int v) {
  MRLC_REQUIRE(node_count >= 2, "tree needs at least two nodes");
  MRLC_REQUIRE(v >= 0 && v < node_count, "vertex out of range");
  int occurrences = 0;
  for (int p : code) occurrences += p == v ? 1 : 0;
  return v == 0 ? occurrences + 1 : occurrences;
}

}  // namespace mrlc::prufer
