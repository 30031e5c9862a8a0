#include "iqs/multidim/range_tree.h"

#include <limits>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs::multidim {
namespace {

std::vector<Point2> MakePoints(size_t n, Rng* rng) {
  std::vector<Point2> pts;
  const auto raw = iqs::Points2D(n, 0, rng);
  pts.reserve(n);
  for (const auto& [x, y] : raw) pts.push_back({x, y});
  return pts;
}

class RangeTreeLeafSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RangeTreeLeafSizeTest, SamplesMatchOracleAcrossQueries) {
  Rng rng(1);
  const auto pts = MakePoints(300, &rng);
  std::vector<double> weights(300);
  for (double& w : weights) w = 0.2 + rng.NextDouble();
  RangeTree2DSampler sampler(pts, weights, GetParam());

  for (int trial = 0; trial < 4; ++trial) {
    Rect q;
    q.x_lo = rng.NextDouble() * 0.5;
    q.x_hi = q.x_lo + 0.2 + rng.NextDouble() * 0.3;
    q.y_lo = rng.NextDouble() * 0.5;
    q.y_hi = q.y_lo + 0.2 + rng.NextDouble() * 0.3;

    std::map<std::pair<double, double>, size_t> index_of;
    std::vector<double> qualified_weights;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (q.Contains(pts[i])) {
        index_of[{pts[i].x, pts[i].y}] = qualified_weights.size();
        qualified_weights.push_back(weights[i]);
      }
    }
    std::vector<Point2> out;
    const bool nonempty = sampler.QueryRect(q, 150000, &rng, &out);
    EXPECT_EQ(nonempty, !qualified_weights.empty());
    if (!nonempty) continue;
    std::vector<size_t> samples;
    for (const Point2& p : out) {
      auto it = index_of.find({p.x, p.y});
      ASSERT_NE(it, index_of.end()) << "sampled point outside rectangle";
      samples.push_back(it->second);
    }
    testing::ExpectSamplesMatchWeights(samples, qualified_weights);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, RangeTreeLeafSizeTest,
                         ::testing::Values(1, 4, 16, 64));

TEST(RangeTreeTest, EmptyXRangeAndEmptyYRange) {
  Rng rng(2);
  const auto pts = MakePoints(50, &rng);
  RangeTree2DSampler sampler(pts, {});
  std::vector<Point2> out;
  EXPECT_FALSE(sampler.QueryRect({2.0, 3.0, 0.0, 1.0}, 5, &rng, &out));
  EXPECT_FALSE(sampler.QueryRect({0.0, 1.0, 2.0, 3.0}, 5, &rng, &out));
  EXPECT_TRUE(out.empty());
}

TEST(RangeTreeTest, FullRangeIsUniformOverAll) {
  Rng rng(3);
  const auto pts = MakePoints(64, &rng);
  RangeTree2DSampler sampler(pts, {});
  std::vector<Point2> out;
  ASSERT_TRUE(
      sampler.QueryRect({-1.0, 2.0, -1.0, 2.0}, 128000, &rng, &out));
  std::map<std::pair<double, double>, uint64_t> freq;
  for (const Point2& p : out) ++freq[{p.x, p.y}];
  ASSERT_EQ(freq.size(), 64u);
  std::vector<uint64_t> counts;
  for (const auto& [key, c] : freq) counts.push_back(c);
  testing::ExpectDistributionClose(counts,
                                   std::vector<double>(64, 1.0 / 64));
}

TEST(RangeTreeTest, DuplicateCoordinatesHandled) {
  Rng rng(4);
  // Grid data: many duplicate x and y values.
  std::vector<Point2> pts;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      pts.push_back({i * 0.1, j * 0.1});
    }
  }
  RangeTree2DSampler sampler(pts, {});
  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryRect({0.15, 0.55, 0.15, 0.55}, 50000, &rng, &out));
  std::map<std::pair<double, double>, uint64_t> freq;
  for (const Point2& p : out) {
    ASSERT_GE(p.x, 0.15);
    ASSERT_LE(p.x, 0.55);
    ASSERT_GE(p.y, 0.15);
    ASSERT_LE(p.y, 0.55);
    ++freq[{p.x, p.y}];
  }
  EXPECT_EQ(freq.size(), 16u);  // 4x4 grid points inside
}

TEST(RangeTreeTest, SinglePoint) {
  Rng rng(5);
  const std::vector<Point2> pts = {{0.3, 0.7}};
  RangeTree2DSampler sampler(pts, {});
  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryRect({0.0, 1.0, 0.0, 1.0}, 4, &rng, &out));
  ASSERT_EQ(out.size(), 4u);
  for (const Point2& p : out) EXPECT_EQ(p, pts[0]);
}

TEST(RangeTreeDeathTest, RejectsWeightsOfTheWrongLength) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Point2> pts = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
  const std::vector<double> weights = {1.0, 2.0};
  EXPECT_DEATH(RangeTree2DSampler(pts, weights), "weights.size\\(\\) == n");
}

TEST(RangeTreeDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Point2> pts = {{0.1, 0.2}, {0.3, 0.4}};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {1.0, bad};
    EXPECT_DEATH(RangeTree2DSampler(pts, weights), "isfinite") << bad;
  }
}

}  // namespace
}  // namespace iqs::multidim
