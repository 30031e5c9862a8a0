#include "iqs/multidim/range_tree_nd.h"

#include <limits>
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

class RangeTreeNdDimTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(RangeTreeNdDimTest, SamplesMatchOracle) {
  const auto [dim, leaf_size] = GetParam();
  Rng rng(1);
  const size_t n = 220;
  const auto coords = MakeCoords(n, dim, &rng);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.3 + rng.NextDouble();
  RangeTreeNdSampler sampler(dim, coords, weights, leaf_size);

  for (int trial = 0; trial < 3; ++trial) {
    BoxNd q(dim);
    for (size_t k = 0; k < dim; ++k) {
      const double lo = rng.NextDouble() * 0.3;
      q.set(k, lo, lo + 0.55);
    }
    std::vector<size_t> qualifying;
    std::vector<double> qualified_weights;
    std::vector<size_t> index_of(n, SIZE_MAX);
    for (size_t i = 0; i < n; ++i) {
      if (q.Contains(sampler.PointAt(i))) {
        index_of[i] = qualifying.size();
        qualifying.push_back(i);
        qualified_weights.push_back(weights[i]);
      }
    }
    std::vector<size_t> out;
    const bool nonempty = sampler.QueryBox(q, 120000, &rng, &out);
    ASSERT_EQ(nonempty, !qualifying.empty());
    if (!nonempty) continue;
    std::vector<size_t> samples;
    for (size_t id : out) {
      ASSERT_NE(index_of[id], SIZE_MAX) << "sample outside box";
      samples.push_back(index_of[id]);
    }
    testing::ExpectSamplesMatchWeights(samples, qualified_weights);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndLeaves, RangeTreeNdDimTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 4},
                      std::pair<size_t, size_t>{2, 1},
                      std::pair<size_t, size_t>{2, 8},
                      std::pair<size_t, size_t>{3, 4},
                      std::pair<size_t, size_t>{4, 8}));

TEST(RangeTreeNdTest, EmptyBoxReturnsFalse) {
  Rng rng(2);
  const auto coords = MakeCoords(50, 3, &rng);
  RangeTreeNdSampler sampler(3, coords, {});
  BoxNd q(3);
  for (size_t k = 0; k < 3; ++k) q.set(k, 2.0, 3.0);
  std::vector<size_t> out;
  EXPECT_FALSE(sampler.QueryBox(q, 5, &rng, &out));
}

TEST(RangeTreeNdTest, FullBoxUniformOverAll) {
  Rng rng(3);
  const size_t n = 64;
  const auto coords = MakeCoords(n, 3, &rng);
  RangeTreeNdSampler sampler(3, coords, {});
  BoxNd q(3);
  for (size_t k = 0; k < 3; ++k) q.set(k, -1.0, 2.0);
  std::vector<size_t> out;
  ASSERT_TRUE(sampler.QueryBox(q, 128000, &rng, &out));
  std::vector<uint64_t> counts(n, 0);
  for (size_t id : out) ++counts[id];
  testing::ExpectDistributionClose(counts, std::vector<double>(n, 1.0 / n));
}

TEST(RangeTreeNdTest, SpaceGrowsWithDimension) {
  Rng rng(4);
  const size_t n = 1 << 10;
  size_t previous = 0;
  for (size_t dim : {1u, 2u, 3u}) {
    const auto coords = MakeCoords(n, dim, &rng);
    RangeTreeNdSampler sampler(dim, coords, {});
    EXPECT_GT(sampler.MemoryBytes(), previous);
    previous = sampler.MemoryBytes();
  }
}

TEST(RangeTreeNdTest, AgreesWithKdTreeNdInLaw) {
  Rng rng(5);
  const size_t n = 150;
  const size_t dim = 3;
  const auto coords = MakeCoords(n, dim, &rng);
  RangeTreeNdSampler range_tree(dim, coords, {});
  KdTreeNdSampler kd(dim, coords, {});

  BoxNd q(dim);
  for (size_t k = 0; k < dim; ++k) q.set(k, 0.2, 0.85);

  // Both must produce the same support of point coordinates.
  std::vector<size_t> rt_out;
  std::vector<size_t> kd_out;
  const bool rt_ok = range_tree.QueryBox(q, 30000, &rng, &rt_out);
  const bool kd_ok = kd.QueryBox(q, 30000, &rng, &kd_out);
  ASSERT_EQ(rt_ok, kd_ok);
  if (!rt_ok) return;
  auto signature = [&](std::span<const double> p) {
    return p[0] * 1e9 + p[1] * 1e6 + p[2] * 1e3;
  };
  std::set<double> rt_support;
  for (size_t id : rt_out) rt_support.insert(signature(range_tree.PointAt(id)));
  std::set<double> kd_support;
  for (size_t id : kd_out) kd_support.insert(signature(kd.tree().PointAt(id)));
  EXPECT_EQ(rt_support, kd_support);
}

TEST(RangeTreeNdDeathTest, RejectsNonFiniteOrNonPositiveWeights) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> coords = {0.1, 0.2, 0.3, 0.4};  // two 2-d points
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    const std::vector<double> weights = {bad, 1.0};
    EXPECT_DEATH(RangeTreeNdSampler(2, coords, weights), "isfinite") << bad;
  }
}

}  // namespace
}  // namespace iqs::multidim
