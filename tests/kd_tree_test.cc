#include "iqs/multidim/kd_tree.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/multidim/kd_sampler.h"
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

// Brute-force rectangle oracle over the ORIGINAL points.
size_t CountInRect(const std::vector<Point2>& pts, const Rect& q) {
  size_t count = 0;
  for (const Point2& p : pts) count += q.Contains(p);
  return count;
}

TEST(KdTreeTest, CoverIsExactPartitionOfResult) {
  Rng rng(1);
  const auto pts = MakePoints(500, &rng);
  KdTree tree(pts, {});
  for (int trial = 0; trial < 100; ++trial) {
    Rect q{rng.NextDouble() * 0.8, 0, rng.NextDouble() * 0.8, 0};
    q.x_hi = q.x_lo + rng.NextDouble() * 0.4;
    q.y_hi = q.y_lo + rng.NextDouble() * 0.4;
    std::vector<CoverRange> cover;
    tree.CoverQuery(q, &cover);
    // Ranges disjoint; all covered points inside q; count matches oracle.
    std::set<size_t> covered;
    for (const CoverRange& range : cover) {
      for (size_t p = range.lo; p <= range.hi; ++p) {
        EXPECT_TRUE(covered.insert(p).second);
        EXPECT_TRUE(q.Contains(tree.PointAt(p)));
      }
    }
    EXPECT_EQ(covered.size(), CountInRect(pts, q));
  }
}

TEST(KdTreeTest, CoverSizeScalesLikeSqrtN) {
  // Full-height slab queries hit Θ(sqrt n) kd-tree nodes. Verify the
  // growth rate between n and 4n is ~2x (not 4x).
  Rng rng(2);
  auto mean_cover = [&](size_t n) {
    const auto pts = MakePoints(n, &rng);
    KdTree tree(pts, {});
    double total = 0.0;
    for (int trial = 0; trial < 30; ++trial) {
      const double x = rng.NextDouble() * 0.8;
      const Rect q{x, x + 0.1, -1.0, 2.0};  // vertical slab
      std::vector<CoverRange> cover;
      tree.CoverQuery(q, &cover);
      total += static_cast<double>(cover.size());
    }
    return total / 30.0;
  };
  const double small = mean_cover(1 << 12);
  const double large = mean_cover(1 << 14);
  EXPECT_LT(large / small, 3.0);  // sqrt(4x) = 2x, with slack
  EXPECT_GT(large / small, 1.3);
}

TEST(KdTreeTest, WeightsFollowReordering) {
  Rng rng(3);
  std::vector<Point2> pts = {{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}, {0.2, 0.8}};
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  KdTree tree(pts, weights);
  // Each stored point must carry its original weight.
  std::map<std::pair<double, double>, double> expected;
  for (size_t i = 0; i < pts.size(); ++i) {
    expected[{pts[i].x, pts[i].y}] = weights[i];
  }
  for (size_t p = 0; p < tree.n(); ++p) {
    const Point2& point = tree.PointAt(p);
    EXPECT_DOUBLE_EQ(tree.WeightAt(p), expected.at({point.x, point.y}));
  }
}

TEST(KdSamplerTest, RectSamplesMatchWeights) {
  Rng rng(4);
  const auto pts = MakePoints(200, &rng);
  std::vector<double> weights(200);
  for (double& w : weights) w = 0.5 + rng.NextDouble() * 2.0;
  KdTreeSampler sampler(pts, weights);
  const Rect q{0.2, 0.7, 0.1, 0.9};

  // Oracle: per-point expected probability among qualifying points.
  std::map<std::pair<double, double>, size_t> index_of;
  std::vector<double> qualified_weights;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (q.Contains(pts[i])) {
      index_of[{pts[i].x, pts[i].y}] = qualified_weights.size();
      qualified_weights.push_back(weights[i]);
    }
  }
  ASSERT_GT(qualified_weights.size(), 5u);

  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryRect(q, 200000, &rng, &out));
  std::vector<size_t> samples;
  for (const Point2& p : out) {
    auto it = index_of.find({p.x, p.y});
    ASSERT_NE(it, index_of.end()) << "sampled point outside rectangle";
    samples.push_back(it->second);
  }
  testing::ExpectSamplesMatchWeights(samples, qualified_weights);
}

TEST(KdSamplerTest, EmptyRectReturnsFalse) {
  Rng rng(5);
  const auto pts = MakePoints(50, &rng);
  KdTreeSampler sampler(pts, {});
  std::vector<Point2> out;
  EXPECT_FALSE(sampler.QueryRect({2.0, 3.0, 2.0, 3.0}, 5, &rng, &out));
  EXPECT_TRUE(out.empty());
}

TEST(KdSamplerTest, DiskSamplesAreUniformWithinDisk) {
  Rng rng(6);
  const auto pts = MakePoints(300, &rng);
  KdTreeSampler sampler(pts, {});
  const Point2 center{0.5, 0.5};
  const double radius = 0.3;
  std::vector<size_t> qualifying;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (Distance(pts[i], center) <= radius) qualifying.push_back(i);
  }
  ASSERT_GT(qualifying.size(), 10u);

  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryDisk(center, radius, 150000, &rng, &out));
  std::map<std::pair<double, double>, size_t> index_of;
  for (size_t j = 0; j < qualifying.size(); ++j) {
    const Point2& p = pts[qualifying[j]];
    index_of[{p.x, p.y}] = j;
  }
  std::vector<size_t> samples;
  for (const Point2& p : out) {
    ASSERT_LE(Distance(p, center), radius);
    samples.push_back(index_of.at({p.x, p.y}));
  }
  testing::ExpectSamplesMatchWeights(
      samples, std::vector<double>(qualifying.size(), 1.0));
}

TEST(KdSamplerTest, ApproxDiskMatchesExactDiskLaw) {
  Rng rng(7);
  const auto pts = MakePoints(400, &rng);
  KdTreeSampler sampler(pts, {});
  const Point2 center{0.4, 0.6};
  const double radius = 0.2;
  std::vector<Point2> exact_out;
  std::vector<Point2> approx_out;
  ASSERT_TRUE(sampler.QueryDisk(center, radius, 120000, &rng, &exact_out));
  ASSERT_TRUE(sampler.QueryDiskApprox(center, radius, 120000, 0.5, &rng,
                                      &approx_out));
  // Same support, both uniform: compare per-point frequencies directly.
  std::map<std::pair<double, double>, std::pair<uint64_t, uint64_t>> freq;
  for (const Point2& p : exact_out) ++freq[{p.x, p.y}].first;
  for (const Point2& p : approx_out) {
    ASSERT_LE(Distance(p, center), radius);
    ++freq[{p.x, p.y}].second;
  }
  for (const auto& [key, counts] : freq) {
    EXPECT_GT(counts.first, 0u);
    EXPECT_GT(counts.second, 0u);
  }
}

TEST(KdSamplerTest, FairNearNeighborIsFreshEachCall) {
  Rng rng(8);
  const auto pts = MakePoints(200, &rng);
  KdTreeSampler sampler(pts, {});
  const Point2 center{0.5, 0.5};
  std::set<std::pair<double, double>> seen;
  int hits = 0;
  for (int i = 0; i < 300; ++i) {
    const auto p = sampler.FairNearNeighbor(center, 0.25, &rng);
    if (p.has_value()) {
      ++hits;
      seen.insert({p->x, p->y});
    }
  }
  EXPECT_EQ(hits, 300);
  EXPECT_GT(seen.size(), 10u);  // not stuck on one neighbor
}

TEST(KdSamplerTest, FairNearNeighborEmptyDisk) {
  Rng rng(9);
  const auto pts = MakePoints(20, &rng);
  KdTreeSampler sampler(pts, {});
  EXPECT_FALSE(sampler.FairNearNeighbor({5.0, 5.0}, 0.1, &rng).has_value());
}

TEST(KdSamplerTest, HalfplaneSamplingUniform) {
  Rng rng(11);
  const auto pts = MakePoints(400, &rng);
  KdTreeSampler sampler(pts, {});
  // Halfplane x + 2y <= 1.2.
  const double a = 1.0;
  const double b = 2.0;
  const double c = 1.2;
  std::vector<size_t> qualifying;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (a * pts[i].x + b * pts[i].y <= c) qualifying.push_back(i);
  }
  ASSERT_GT(qualifying.size(), 20u);
  std::map<std::pair<double, double>, size_t> index_of;
  for (size_t j = 0; j < qualifying.size(); ++j) {
    index_of[{pts[qualifying[j]].x, pts[qualifying[j]].y}] = j;
  }
  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryHalfplane(a, b, c, 150000, &rng, &out));
  std::vector<size_t> samples;
  for (const Point2& p : out) {
    ASSERT_LE(a * p.x + b * p.y, c);
    samples.push_back(index_of.at({p.x, p.y}));
  }
  testing::ExpectSamplesMatchWeights(
      samples, std::vector<double>(qualifying.size(), 1.0));
}

TEST(KdSamplerTest, HalfplaneNegativeCoefficients) {
  Rng rng(12);
  const auto pts = MakePoints(200, &rng);
  KdTreeSampler sampler(pts, {});
  // -x - y <= -1.5  <=>  x + y >= 1.5 (a corner sliver).
  std::vector<Point2> out;
  const bool any = sampler.QueryHalfplane(-1.0, -1.0, -1.5, 50, &rng, &out);
  size_t oracle = 0;
  for (const Point2& p : pts) oracle += (p.x + p.y >= 1.5);
  EXPECT_EQ(any, oracle > 0);
  for (const Point2& p : out) EXPECT_GE(p.x + p.y, 1.5);
}

TEST(KdSamplerTest, EmptyHalfplaneReturnsFalse) {
  Rng rng(13);
  const auto pts = MakePoints(50, &rng);
  KdTreeSampler sampler(pts, {});
  std::vector<Point2> out;
  EXPECT_FALSE(sampler.QueryHalfplane(1.0, 1.0, -5.0, 3, &rng, &out));
}

TEST(KdSamplerTest, SinglePointDataset) {
  Rng rng(10);
  const std::vector<Point2> pts = {{0.5, 0.5}};
  KdTreeSampler sampler(pts, {});
  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryRect({0.0, 1.0, 0.0, 1.0}, 3, &rng, &out));
  ASSERT_EQ(out.size(), 3u);
  for (const Point2& p : out) EXPECT_EQ(p, pts[0]);
}

TEST(KdTreeDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Point2> pts = {{0.1, 0.2}, {0.3, 0.4}};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {1.0, bad};
    EXPECT_DEATH(KdTree(pts, weights), "isfinite") << bad;
  }
}

}  // namespace
}  // namespace iqs::multidim
