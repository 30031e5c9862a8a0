#include "iqs/range/static_bst.h"

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(StaticBstTest, StructureInvariants) {
  const std::vector<double> weights(13, 1.0);
  StaticBst tree(weights);
  EXPECT_EQ(tree.num_leaves(), 13u);
  EXPECT_EQ(tree.num_nodes(), 25u);  // 2n - 1
  // Every internal node's range is the union of its children's ranges and
  // its weight is their sum.
  for (StaticBst::NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (tree.IsLeaf(u)) {
      EXPECT_EQ(tree.RangeLo(u), tree.RangeHi(u));
      continue;
    }
    const auto left = tree.LeftChild(u);
    const auto right = tree.RightChild(u);
    EXPECT_EQ(tree.RangeLo(u), tree.RangeLo(left));
    EXPECT_EQ(tree.RangeHi(u), tree.RangeHi(right));
    EXPECT_EQ(tree.RangeHi(left) + 1, tree.RangeLo(right));
    EXPECT_NEAR(tree.NodeWeight(u),
                tree.NodeWeight(left) + tree.NodeWeight(right), 1e-12);
  }
}

TEST(StaticBstTest, SingleLeaf) {
  StaticBst tree(std::vector<double>{2.0});
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
  EXPECT_EQ(tree.Height(), 0u);
}

TEST(StaticBstTest, HeightIsLogarithmic) {
  for (size_t n : {2, 3, 15, 16, 17, 1000, 4096}) {
    StaticBst tree(std::vector<double>(n, 1.0));
    EXPECT_LE(tree.Height(),
              static_cast<size_t>(std::ceil(std::log2(n))) + 1)
        << "n=" << n;
  }
}

TEST(StaticBstTest, CanonicalCoverIsExactPartition) {
  Rng rng(1);
  const size_t n = 200;
  StaticBst tree(std::vector<double>(n, 1.0));
  for (int trial = 0; trial < 300; ++trial) {
    size_t a = rng.Below(n);
    size_t b = rng.Below(n);
    if (a > b) std::swap(a, b);
    std::vector<StaticBst::NodeId> cover;
    tree.CanonicalCover(a, b, &cover);
    // Subtrees disjoint and their leaf ranges tile [a, b] exactly.
    std::set<size_t> covered;
    for (StaticBst::NodeId u : cover) {
      for (size_t p = tree.RangeLo(u); p <= tree.RangeHi(u); ++p) {
        EXPECT_TRUE(covered.insert(p).second) << "overlapping cover";
      }
    }
    EXPECT_EQ(covered.size(), b - a + 1);
    EXPECT_EQ(*covered.begin(), a);
    EXPECT_EQ(*covered.rbegin(), b);
  }
}

TEST(StaticBstTest, CanonicalCoverIsLogarithmicallySmall) {
  const size_t n = 1 << 16;
  StaticBst tree(std::vector<double>(n, 1.0));
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    size_t a = rng.Below(n);
    size_t b = rng.Below(n);
    if (a > b) std::swap(a, b);
    std::vector<StaticBst::NodeId> cover;
    tree.CanonicalCover(a, b, &cover);
    EXPECT_LE(cover.size(), 2 * 16u) << "[" << a << "," << b << "]";
  }
}

TEST(StaticBstTest, CoverOfFullRangeIsRoot) {
  StaticBst tree(std::vector<double>(64, 1.0));
  std::vector<StaticBst::NodeId> cover;
  tree.CanonicalCover(0, 63, &cover);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], tree.root());
}

TEST(StaticBstTest, CoverOrderedLeftToRight) {
  StaticBst tree(std::vector<double>(100, 1.0));
  std::vector<StaticBst::NodeId> cover;
  tree.CanonicalCover(7, 93, &cover);
  for (size_t i = 1; i < cover.size(); ++i) {
    EXPECT_LT(tree.RangeHi(cover[i - 1]), tree.RangeLo(cover[i]));
  }
}

TEST(StaticBstTest, SampleLeafMatchesSubtreeWeights) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  StaticBst tree(weights);
  std::vector<size_t> samples;
  for (int i = 0; i < 200000; ++i) {
    samples.push_back(tree.SampleLeaf(tree.root(), &rng));
  }
  testing::ExpectSamplesMatchWeights(samples, weights);
}

TEST(StaticBstTest, SampleLeafFromInternalNodeRestrictsToSubtree) {
  Rng rng(4);
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  StaticBst tree(weights);
  // Pick the left child of the root: positions [0, 2].
  const StaticBst::NodeId left = tree.LeftChild(tree.root());
  std::vector<size_t> samples;
  for (int i = 0; i < 120000; ++i) {
    const size_t p = tree.SampleLeaf(left, &rng);
    ASSERT_GE(p, tree.RangeLo(left));
    ASSERT_LE(p, tree.RangeHi(left));
    samples.push_back(p);
  }
  testing::ExpectSamplesMatchWeights(
      samples, {1.0, 2.0, 3.0, 0.0, 0.0, 0.0});
}

TEST(StaticBstTest, LeafForPositionRoundTrips) {
  StaticBst tree(std::vector<double>(37, 1.0));
  for (size_t p = 0; p < 37; ++p) {
    const StaticBst::NodeId leaf = tree.LeafForPosition(p);
    EXPECT_TRUE(tree.IsLeaf(leaf));
    EXPECT_EQ(tree.LeafPosition(leaf), p);
  }
}

TEST(StaticBstTest, DescendToLeavesMatchesWeights) {
  const std::vector<double> weights = testing::VariedWeights(64);
  StaticBst tree(weights);
  Rng rng(108);
  ScratchArena arena;
  std::vector<size_t> out(200000);
  tree.SampleLeaves(tree.root(), &rng, &arena, out);
  testing::ExpectSamplesMatchWeights(out, weights);
}

TEST(StaticBstTest, DescendToLeavesCountsSteps) {
  // Steps = lanes x passes for a perfect tree: with 64 leaves every lane
  // descends 6 levels, plus the final all-leaves pass that detects
  // termination.
  const std::vector<double> weights(64, 1.0);
  StaticBst tree(weights);
  Rng rng(109);
  ScratchArena arena;
  std::vector<StaticBst::NodeId> lanes(4096, tree.root());
  const size_t steps = tree.DescendToLeaves(lanes, &rng, &arena);
  EXPECT_EQ(steps, 4096u * 7);
  for (StaticBst::NodeId leaf : lanes) EXPECT_TRUE(tree.IsLeaf(leaf));
}

TEST(StaticBstDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {1.0, bad, 2.0};
    EXPECT_DEATH(StaticBst{weights}, "isfinite\\(weights") << bad;
  }
  // Finite leaves whose sum overflows.
  const double big = std::numeric_limits<double>::max();
  EXPECT_DEATH(StaticBst(std::vector<double>{big, big}),
               "isfinite\\(nodes_\\[0\\].weight\\)");
}

}  // namespace
}  // namespace iqs
