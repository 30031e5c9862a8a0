#include "iqs/multidim/kd_tree_nd.h"

#include <limits>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs::multidim {
namespace {

std::vector<double> MakeCoords(size_t n, size_t dim, Rng* rng) {
  std::vector<double> coords(n * dim);
  for (double& c : coords) c = rng->NextDouble();
  return coords;
}

BoxNd RandomBox(size_t dim, double side, Rng* rng) {
  BoxNd q(dim);
  for (size_t k = 0; k < dim; ++k) {
    const double lo = rng->NextDouble() * (1.0 - side);
    q.set(k, lo, lo + side);
  }
  return q;
}

class KdNdDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KdNdDimTest, CoverIsExactPartition) {
  const size_t dim = GetParam();
  Rng rng(1);
  const size_t n = 400;
  const auto coords = MakeCoords(n, dim, &rng);
  KdTreeNd tree(dim, coords, {});
  for (int trial = 0; trial < 50; ++trial) {
    const BoxNd q = RandomBox(dim, 0.6, &rng);
    std::vector<CoverRange> cover;
    tree.CoverQuery(q, &cover);
    std::set<size_t> covered;
    for (const CoverRange& range : cover) {
      for (size_t p = range.lo; p <= range.hi; ++p) {
        EXPECT_TRUE(covered.insert(p).second);
        EXPECT_TRUE(q.Contains(tree.PointAt(p)));
      }
    }
    // Oracle count over the REORDERED points (tree owns the order).
    size_t oracle = 0;
    for (size_t i = 0; i < n; ++i) oracle += q.Contains(tree.PointAt(i));
    EXPECT_EQ(covered.size(), oracle);
  }
}

TEST_P(KdNdDimTest, SamplesMatchWeights) {
  const size_t dim = GetParam();
  Rng rng(2);
  const size_t n = 200;
  const auto coords = MakeCoords(n, dim, &rng);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.3 + rng.NextDouble();
  KdTreeNdSampler sampler(dim, coords, weights);

  const BoxNd q = RandomBox(dim, 0.8, &rng);
  std::vector<size_t> qualifying;
  std::vector<double> qualified_weights;
  std::vector<size_t> position_to_index(sampler.tree().n(), SIZE_MAX);
  for (size_t p = 0; p < sampler.tree().n(); ++p) {
    if (q.Contains(sampler.tree().PointAt(p))) {
      position_to_index[p] = qualifying.size();
      qualifying.push_back(p);
      qualified_weights.push_back(sampler.tree().WeightAt(p));
    }
  }
  if (qualifying.size() < 5) GTEST_SKIP() << "box too empty in high dim";

  std::vector<size_t> out;
  ASSERT_TRUE(sampler.QueryBox(q, 150000, &rng, &out));
  std::vector<size_t> samples;
  for (size_t p : out) {
    ASSERT_NE(position_to_index[p], SIZE_MAX) << "sample outside box";
    samples.push_back(position_to_index[p]);
  }
  testing::ExpectSamplesMatchWeights(samples, qualified_weights);
}

INSTANTIATE_TEST_SUITE_P(Dims, KdNdDimTest, ::testing::Values(1, 2, 3, 5));

TEST(KdNdTest, MatchesTwoDSpecialization) {
  // d = 2 results should agree in law with the dedicated 2-d kd-tree.
  Rng rng(3);
  const size_t n = 300;
  const auto coords = MakeCoords(n, 2, &rng);
  KdTreeNd tree(2, coords, {});
  BoxNd q(2);
  q.set(0, 0.2, 0.7);
  q.set(1, 0.1, 0.9);
  std::vector<size_t> reported;
  tree.Report(q, &reported);
  size_t oracle = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto p = tree.PointAt(i);
    oracle += (p[0] >= 0.2 && p[0] <= 0.7 && p[1] >= 0.1 && p[1] <= 0.9);
  }
  EXPECT_EQ(reported.size(), oracle);
}

TEST(KdNdTest, CoverSizeGrowsWithDimension) {
  // The paper's n^{1-1/d} claim: at fixed n, slab-like queries touch more
  // nodes as d rises.
  Rng rng(4);
  const size_t n = 1 << 12;
  double previous = 0.0;
  for (size_t dim : {1u, 2u, 4u}) {
    const auto coords = MakeCoords(n, dim, &rng);
    KdTreeNd tree(dim, coords, {});
    double total = 0.0;
    for (int trial = 0; trial < 30; ++trial) {
      BoxNd q(dim);
      // Half-width in every axis: boundary grows with d.
      for (size_t k = 0; k < dim; ++k) {
        const double lo = rng.NextDouble() * 0.5;
        q.set(k, lo, lo + 0.5);
      }
      std::vector<CoverRange> cover;
      tree.CoverQuery(q, &cover);
      total += static_cast<double>(cover.size());
    }
    const double mean = total / 30.0;
    EXPECT_GT(mean, previous);
    previous = mean;
  }
}

TEST(KdNdTest, SinglePointAndDegenerateBox) {
  Rng rng(5);
  const std::vector<double> coords = {0.5, 0.5, 0.5};
  KdTreeNdSampler sampler(3, coords, {});
  BoxNd q(3);
  for (size_t k = 0; k < 3; ++k) q.set(k, 0.5, 0.5);
  std::vector<size_t> out;
  ASSERT_TRUE(sampler.QueryBox(q, 4, &rng, &out));
  EXPECT_EQ(out.size(), 4u);
  BoxNd miss(3);
  for (size_t k = 0; k < 3; ++k) miss.set(k, 0.6, 0.7);
  EXPECT_FALSE(sampler.QueryBox(miss, 1, &rng, &out));
}

TEST(KdTreeNdDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> coords = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {1.0, bad};
    EXPECT_DEATH(KdTreeNd(3, coords, weights), "isfinite") << bad;
  }
}

}  // namespace
}  // namespace iqs::multidim
