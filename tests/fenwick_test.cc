#include "iqs/range/fenwick_tree.h"

#include <cstdint>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/alias/fenwick_sampler.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(FenwickTest, BulkBuildMatchesPrefixOracle) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  FenwickTree tree(values);
  double prefix = 0.0;
  for (size_t i = 0; i <= values.size(); ++i) {
    EXPECT_NEAR(tree.PrefixSum(i), prefix, 1e-12);
    if (i < values.size()) prefix += values[i];
  }
}

TEST(FenwickTest, RangeSumMatchesOracle) {
  Rng rng(1);
  std::vector<double> values(100);
  for (double& v : values) v = rng.NextDouble();
  FenwickTree tree(values);
  for (int trial = 0; trial < 500; ++trial) {
    size_t a = rng.Below(values.size());
    size_t b = rng.Below(values.size());
    if (a > b) std::swap(a, b);
    double want = 0.0;
    for (size_t i = a; i <= b; ++i) want += values[i];
    EXPECT_NEAR(tree.RangeSum(a, b), want, 1e-9);
  }
}

TEST(FenwickTest, AddUpdatesSums) {
  FenwickTree tree(5);
  tree.Add(2, 10.0);
  tree.Add(4, 1.0);
  EXPECT_NEAR(tree.PrefixSum(2), 0.0, 1e-12);
  EXPECT_NEAR(tree.PrefixSum(3), 10.0, 1e-12);
  EXPECT_NEAR(tree.TotalSum(), 11.0, 1e-12);
  tree.Add(2, -10.0);
  EXPECT_NEAR(tree.TotalSum(), 1.0, 1e-12);
}

TEST(FenwickTest, SearchPrefixLocatesPositions) {
  const std::vector<double> values = {2.0, 0.0, 3.0, 5.0};
  FenwickTree tree(values);
  // Cumulative: [0,2) -> 0, [2,5) -> 2, [5,10) -> 3.
  EXPECT_EQ(tree.SearchPrefix(0.0), 0u);
  EXPECT_EQ(tree.SearchPrefix(1.9), 0u);
  EXPECT_EQ(tree.SearchPrefix(2.0), 2u);
  EXPECT_EQ(tree.SearchPrefix(4.9), 2u);
  EXPECT_EQ(tree.SearchPrefix(5.0), 3u);
  EXPECT_EQ(tree.SearchPrefix(9.999), 3u);
}

TEST(FenwickTest, SearchPrefixRandomizedOracle) {
  Rng rng(2);
  std::vector<double> values(33);
  for (double& v : values) v = rng.NextDouble() < 0.3 ? 0.0 : rng.NextDouble();
  values[32] = 0.5;  // ensure positive tail
  FenwickTree tree(values);
  const double total = tree.TotalSum();
  for (int trial = 0; trial < 2000; ++trial) {
    const double target = rng.NextDouble() * total;
    const size_t got = tree.SearchPrefix(target);
    // Oracle: smallest i with prefix(i+1) > target.
    size_t want = 0;
    double acc = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      acc += values[i];
      if (acc > target) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(got, want) << "target " << target;
  }
}

TEST(FenwickTest, CountInstantiationSelectsKthUnit) {
  // The join sweep's activity index: uint32 cells, uint64 sums, and
  // SearchPrefix(k) as the position of the (k+1)-th unit. Decrements wrap
  // modulo 2^32 in the cells.
  Rng rng(6);
  constexpr size_t kN = 77;
  std::vector<uint32_t> counts(kN, 0);
  Fenwick<uint32_t, uint64_t> tree(kN);
  auto expect_matches_oracle = [&](const Fenwick<uint32_t, uint64_t>& t) {
    uint64_t prefix = 0;
    for (size_t pos = 0; pos < kN; ++pos) {
      ASSERT_EQ(t.PrefixSum(pos), prefix);
      for (uint32_t unit = 0; unit < counts[pos]; ++unit) {
        ASSERT_EQ(t.SearchPrefix(prefix + unit), pos);
      }
      prefix += counts[pos];
    }
    ASSERT_EQ(t.TotalSum(), prefix);
  };
  for (int step = 0; step < 3000; ++step) {
    const size_t i = rng.Below(kN);
    if (counts[i] > 0 && rng.Below(2) == 0) {
      --counts[i];
      tree.Add(i, ~uint32_t{0});
    } else {
      ++counts[i];
      tree.Add(i, 1);
    }
    if (step % 100 == 99) expect_matches_oracle(tree);
  }
  expect_matches_oracle(
      Fenwick<uint32_t, uint64_t>(std::span<const uint32_t>(counts)));
}

TEST(FenwickSamplerTest, MatchesWeights) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 0.0, 2.0, 3.0, 0.5};
  FenwickSampler sampler(weights);
  std::vector<size_t> samples;
  for (int i = 0; i < 200000; ++i) samples.push_back(sampler.Sample(&rng));
  testing::ExpectSamplesMatchWeights(samples, weights);
}

TEST(FenwickSamplerTest, SetWeightRedistributes) {
  Rng rng(4);
  FenwickSampler sampler(3);
  sampler.SetWeight(0, 1.0);
  sampler.SetWeight(2, 1.0);
  sampler.SetWeight(0, 0.0);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sampler.Sample(&rng), 2u);
  EXPECT_DOUBLE_EQ(sampler.total_weight(), 1.0);
}

TEST(FenwickSamplerTest, ZeroWeightNeverSampled) {
  Rng rng(5);
  FenwickSampler sampler(std::vector<double>{0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(&rng), 1u);
}

}  // namespace
}  // namespace iqs
