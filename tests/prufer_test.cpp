#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "prufer/codec.hpp"
#include "prufer/updates.hpp"

namespace mrlc::prufer {
namespace {

/// The paper's running example (Fig. 5(a)): 9 nodes, root 0.
/// Children of 0: {7, 4, 8}; children of 2: {6}; children of 4: {3, 2};
/// children of 8: {5, 1}.
ParentArray paper_tree() {
  //            0  1  2  3  4  5  6  7  8
  return {     -1, 8, 4, 4, 0, 8, 2, 0, 0};
}

/// Generates a random parent array on n nodes rooted at 0: each node picks
/// a parent among nodes already attached (random recursive tree).
ParentArray random_parent_array(int n, Rng& rng) {
  ParentArray parent(static_cast<std::size_t>(n), -1);
  std::vector<int> order;
  for (int v = 1; v < n; ++v) order.push_back(v);
  rng.shuffle(order);
  std::vector<int> attached{0};
  for (int v : order) {
    parent[static_cast<std::size_t>(v)] = attached[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(attached.size()) - 1))];
    attached.push_back(v);
  }
  return parent;
}

// ---------------------------------------------------------------- codec --

TEST(PruferEncode, PaperExampleFig5) {
  // The paper reports P = (0, 2, 8, 4, 4, 0, 8).
  EXPECT_EQ(encode(paper_tree()), (Code{0, 2, 8, 4, 4, 0, 8}));
}

TEST(PruferDecode, PaperExampleSequence) {
  // The paper reports D = (7, 6, 5, 3, 2, 4, 1, 8, 0).
  const Code p{0, 2, 8, 4, 4, 0, 8};
  EXPECT_EQ(decode_sequence(p, 9),
            (std::vector<int>{7, 6, 5, 3, 2, 4, 1, 8, 0}));
}

TEST(PruferDecode, PaperExampleParents) {
  const Code p{0, 2, 8, 4, 4, 0, 8};
  EXPECT_EQ(decode(p, 9), paper_tree());
}

TEST(PruferCodec, TwoNodeTree) {
  const ParentArray two{-1, 0};
  EXPECT_TRUE(encode(two).empty());
  EXPECT_EQ(decode({}, 2), two);
}

TEST(PruferCodec, StarCenteredAtSink) {
  // This is the case where the paper's literal "append p_{n-2}" breaks;
  // the implementation must still round-trip it.
  const ParentArray star{-1, 0, 0, 0};
  const Code code = encode(star);
  EXPECT_EQ(code, (Code{0, 0}));
  EXPECT_EQ(decode(code, 4), star);
}

TEST(PruferCodec, PathTree) {
  const ParentArray path{-1, 0, 1, 2, 3};
  const Code code = encode(path);
  EXPECT_EQ(decode(code, 5), path);
}

TEST(PruferCodec, RoundTripRandomTrees) {
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 24));
    const ParentArray parent = random_parent_array(n, rng);
    const Code code = encode(parent);
    EXPECT_EQ(static_cast<int>(code.size()), n - 2);
    EXPECT_EQ(decode(code, n), parent) << "trial " << trial << " n=" << n;
  }
}

TEST(PruferCodec, EveryCodeDecodesToATree) {
  // Prüfer is a bijection: any sequence in [0, n)^(n-2) is a valid tree.
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 12));
    Code code(static_cast<std::size_t>(n - 2));
    for (int& c : code) c = static_cast<int>(rng.uniform_int(0, n - 1));
    const ParentArray parent = decode(code, n);
    EXPECT_NO_THROW(validate_parent_array(parent));
    EXPECT_EQ(encode(parent), code) << "bijection must hold";
  }
}

TEST(PruferCodec, CayleyCountViaDistinctCodes) {
  // All 4^2 = 16 codes on 4 nodes decode to 16 distinct labeled trees.
  std::set<ParentArray> trees;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      trees.insert(decode({a, b}, 4));
    }
  }
  EXPECT_EQ(trees.size(), 16u);
}

TEST(PruferChildren, Eq23MatchesDecodedTree) {
  Rng rng(10);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 16));
    const ParentArray parent = random_parent_array(n, rng);
    const Code code = encode(parent);
    std::map<int, int> children;
    for (int v = 1; v < n; ++v) ++children[parent[static_cast<std::size_t>(v)]];
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(children_from_code(code, n, v), children[v])
          << "trial " << trial << " node " << v;
    }
  }
}

TEST(PruferValidation, RejectsMalformedInput) {
  EXPECT_THROW(validate_parent_array({}), std::invalid_argument);
  EXPECT_THROW(validate_parent_array({0}), std::invalid_argument);       // root not -1
  EXPECT_THROW(validate_parent_array({-1, 5}), std::invalid_argument);   // out of range
  EXPECT_THROW(validate_parent_array({-1, 1}), std::invalid_argument);   // self-parent
  EXPECT_THROW(validate_parent_array({-1, 2, 1}), std::invalid_argument);  // cycle
  EXPECT_THROW(decode({7}, 3), std::invalid_argument);  // entry out of range
  EXPECT_THROW(decode({0, 0}, 3), std::invalid_argument);  // wrong length
  EXPECT_THROW(encode({-1}), std::invalid_argument);  // n < 2
}

/// A 10^5-node chain is the deepest tree there is; validation walks each
/// node once, so validating and encoding it stays far below the ceiling
/// (walking every node's root path instead takes n^2/2 = 5e9 steps).
TEST(PruferValidation, LongChainIsLinearTime) {
  const int n = 100000;
  ParentArray chain(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) chain[static_cast<std::size_t>(v)] = v - 1;
  const auto start = std::chrono::steady_clock::now();
  validate_parent_array(chain);
  validate_forest(chain);
  const Code code = encode(chain);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0);
  // The only leaf is always the chain's end: code = n-2, n-3, ..., 1.
  ASSERT_EQ(code.size(), static_cast<std::size_t>(n - 2));
  EXPECT_EQ(code.front(), n - 2);
  EXPECT_EQ(code.back(), 1);
  EXPECT_EQ(decode(code, n), chain);
}

/// A cycle through every non-root node never reaches the root; walks
/// entering it from a tail must be caught too.
TEST(PruferValidation, RejectsLongCycleAvoidingRoot) {
  const int n = 5000;
  ParentArray parent(static_cast<std::size_t>(n));
  parent[0] = -1;
  parent[1] = n / 2 - 1;  // 1 -> n/2-1 -> ... -> 2 -> 1
  for (int v = 2; v < n / 2; ++v) parent[static_cast<std::size_t>(v)] = v - 1;
  for (int v = n / 2; v < n; ++v) parent[static_cast<std::size_t>(v)] = v - 1;  // tail
  EXPECT_THROW(validate_parent_array(parent), std::invalid_argument);
  EXPECT_THROW(validate_forest(parent), std::invalid_argument);
  EXPECT_THROW(encode(parent), std::invalid_argument);
}

/// Forest validation accepts detached subtrees whose walks merge, and
/// rejects a cycle hidden beside them.
TEST(PruferValidation, RejectsCycleInForest) {
  //                         0   1  2  3  4  5  6
  const ParentArray forest{-1, -1, 1, 1, 2, 0, 5};
  EXPECT_NO_THROW(validate_forest(forest));
  EXPECT_THROW(validate_parent_array(forest), std::invalid_argument);  // detached 1

  //                          0   1  2  3  4  5  6
  const ParentArray cyclic{-1, -1, 1, 4, 6, 0, 3};  // 3 -> 4 -> 6 -> 3
  EXPECT_THROW(validate_forest(cyclic), std::invalid_argument);
}

// -------------------------------------------------------------- updates --

TEST(PruferUpdates, SubtreeMembersMatchesExample) {
  // Paper: removing (4, 0) separates component {6, 3, 2, 4}.
  const auto members = subtree_members(paper_tree(), 4);
  EXPECT_EQ(std::set<int>(members.begin(), members.end()),
            (std::set<int>{2, 3, 4, 6}));
}

TEST(PruferUpdates, ParentChangeMatchesPaperExample) {
  // Paper Fig. 5(b): node 4 changes parent from 0 to 7; the updated code is
  // a permutation-equivalent tree: verify by decoding.
  const Code p{0, 2, 8, 4, 4, 0, 8};
  const Code p2 = apply_parent_change(p, 9, 4, 7);
  const ParentArray parent = decode(p2, 9);
  EXPECT_EQ(parent[4], 7);
  // All other parent relations are untouched.
  const ParentArray before = paper_tree();
  for (int v = 0; v < 9; ++v) {
    if (v != 4) {
      EXPECT_EQ(parent[static_cast<std::size_t>(v)],
                before[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(PruferUpdates, ParentChangeRejectsCycles) {
  const Code p{0, 2, 8, 4, 4, 0, 8};
  // 2 is in 4's subtree: 4 -> 2 would be a cycle.
  EXPECT_THROW(apply_parent_change(p, 9, 4, 2), InfeasibleError);
  EXPECT_THROW(apply_parent_change(p, 9, 0, 3), std::invalid_argument);  // sink
  EXPECT_THROW(apply_parent_change(p, 9, 3, 3), std::invalid_argument);
}

TEST(PruferUpdates, ParentChangeIsReplicaDeterministic) {
  // Two replicas applying the same record end with identical codes.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 12;
    const ParentArray parent = random_parent_array(n, rng);
    const Code code = encode(parent);
    // Pick a random valid parent change.
    const int child = static_cast<int>(rng.uniform_int(1, n - 1));
    const auto members = subtree_members(parent, child);
    std::vector<int> outside;
    for (int v = 0; v < n; ++v) {
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        outside.push_back(v);
      }
    }
    const int new_parent = outside[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(outside.size()) - 1))];
    const Code a = apply_parent_change(code, n, child, new_parent);
    const Code b = apply_parent_change(code, n, child, new_parent);
    EXPECT_EQ(a, b);
    EXPECT_EQ(decode(a, n)[static_cast<std::size_t>(child)], new_parent);
  }
}

TEST(PruferUpdates, EvertAndAttachReversesPath) {
  // Take the paper tree, detach subtree at 4 and re-root it at 6 attached
  // to node 5: path 6 -> 2 -> 4 reverses.
  ParentArray parent = paper_tree();
  evert_and_attach(parent, 4, 6, 5);
  EXPECT_EQ(parent[6], 5);
  EXPECT_EQ(parent[2], 6);
  EXPECT_EQ(parent[4], 2);
  EXPECT_EQ(parent[3], 4);  // untouched branch
  EXPECT_NO_THROW(validate_parent_array(parent));
}

TEST(PruferUpdates, EvertDegenerateCaseIsPlainReparent) {
  ParentArray parent = paper_tree();
  evert_and_attach(parent, 4, 4, 7);  // new local root == subtree root
  EXPECT_EQ(parent[4], 7);
  EXPECT_NO_THROW(validate_parent_array(parent));
}

TEST(PruferUpdates, EvertRejectsBadInput) {
  ParentArray parent = paper_tree();
  // 5 is not in 4's subtree.
  EXPECT_THROW(evert_and_attach(parent, 4, 5, 7), std::invalid_argument);
  // attach target inside the subtree.
  ParentArray parent2 = paper_tree();
  EXPECT_THROW(evert_and_attach(parent2, 4, 6, 3), std::invalid_argument);
}

}  // namespace
}  // namespace mrlc::prufer
