#include "iqs/multidim/quadtree.h"

#include <limits>
#include <map>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs::multidim {
namespace {

std::vector<Point2> MakePoints(size_t n, size_t clusters, Rng* rng) {
  std::vector<Point2> pts;
  const auto raw = iqs::Points2D(n, clusters, rng);
  pts.reserve(n);
  for (const auto& [x, y] : raw) pts.push_back({x, y});
  return pts;
}

TEST(QuadtreeTest, CoverIsExactPartition) {
  Rng rng(1);
  const auto pts = MakePoints(600, 0, &rng);
  Quadtree tree(pts, {});
  for (int trial = 0; trial < 100; ++trial) {
    Rect q;
    q.x_lo = rng.NextDouble() * 0.7;
    q.x_hi = q.x_lo + rng.NextDouble() * 0.5;
    q.y_lo = rng.NextDouble() * 0.7;
    q.y_hi = q.y_lo + rng.NextDouble() * 0.5;
    std::vector<CoverRange> cover;
    tree.CoverQuery(q, &cover);
    std::set<size_t> covered;
    for (const CoverRange& range : cover) {
      for (size_t p = range.lo; p <= range.hi; ++p) {
        EXPECT_TRUE(covered.insert(p).second) << "overlap";
        EXPECT_TRUE(q.Contains(tree.PointAt(p)));
      }
    }
    size_t oracle = 0;
    for (const Point2& p : pts) oracle += q.Contains(p);
    EXPECT_EQ(covered.size(), oracle);
  }
}

TEST(QuadtreeTest, CoincidentPointsRespectMaxDepth) {
  // 100 identical points must not recurse forever.
  std::vector<Point2> pts(100, Point2{0.5, 0.5});
  Quadtree tree(pts, {}, /*leaf_capacity=*/2, /*max_depth=*/8);
  EXPECT_EQ(tree.n(), 100u);
  std::vector<size_t> out;
  tree.Report({0.0, 1.0, 0.0, 1.0}, &out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(QuadtreeTest, ClusteredDataBuilds) {
  Rng rng(2);
  const auto pts = MakePoints(2000, 3, &rng);
  Quadtree tree(pts, {});
  EXPECT_GT(tree.num_nodes(), 100u);
  std::vector<size_t> out;
  tree.Report({-10.0, 10.0, -10.0, 10.0}, &out);
  EXPECT_EQ(out.size(), 2000u);
}

TEST(QuadtreeSamplerTest, WeightedRectSampling) {
  Rng rng(3);
  const auto pts = MakePoints(250, 0, &rng);
  std::vector<double> weights(250);
  for (double& w : weights) w = 0.5 + 3.0 * rng.NextDouble();
  QuadtreeSampler sampler(pts, weights);
  const Rect q{0.1, 0.8, 0.2, 0.9};

  std::map<std::pair<double, double>, size_t> index_of;
  std::vector<double> qualified_weights;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (q.Contains(pts[i])) {
      index_of[{pts[i].x, pts[i].y}] = qualified_weights.size();
      qualified_weights.push_back(weights[i]);
    }
  }
  ASSERT_GT(qualified_weights.size(), 10u);

  std::vector<Point2> out;
  ASSERT_TRUE(sampler.QueryRect(q, 200000, &rng, &out));
  std::vector<size_t> samples;
  for (const Point2& p : out) {
    auto it = index_of.find({p.x, p.y});
    ASSERT_NE(it, index_of.end());
    samples.push_back(it->second);
  }
  testing::ExpectSamplesMatchWeights(samples, qualified_weights);
}

TEST(QuadtreeSamplerTest, EmptyRectIsFalse) {
  Rng rng(4);
  const auto pts = MakePoints(40, 0, &rng);
  QuadtreeSampler sampler(pts, {});
  std::vector<Point2> out;
  EXPECT_FALSE(sampler.QueryRect({3.0, 4.0, 3.0, 4.0}, 2, &rng, &out));
}

TEST(QuadtreeSamplerTest, AgreesWithKdResultSize) {
  // Cross-structure sanity: quadtree and brute force agree on result
  // membership for many random queries.
  Rng rng(5);
  const auto pts = MakePoints(300, 2, &rng);
  Quadtree tree(pts, {});
  for (int trial = 0; trial < 50; ++trial) {
    Rect q;
    q.x_lo = rng.NextDouble();
    q.x_hi = q.x_lo + 0.2;
    q.y_lo = rng.NextDouble();
    q.y_hi = q.y_lo + 0.2;
    std::vector<size_t> reported;
    tree.Report(q, &reported);
    size_t oracle = 0;
    for (const Point2& p : pts) oracle += q.Contains(p);
    EXPECT_EQ(reported.size(), oracle);
  }
}

TEST(QuadtreeDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Point2> pts = {{0.1, 0.2}, {0.3, 0.4}};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {1.0, bad};
    EXPECT_DEATH(Quadtree(pts, weights), "isfinite") << bad;
  }
}

}  // namespace
}  // namespace iqs::multidim
