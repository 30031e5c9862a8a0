#include "iqs/alias/alias_table.h"

#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(AliasTableTest, SingleElement) {
  Rng rng(1);
  AliasTable table(std::vector<double>{5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(&rng), 0u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_DOUBLE_EQ(table.total_weight(), 5.0);
}

TEST(AliasTableTest, EqualWeightsAreUniform) {
  Rng rng(2);
  constexpr size_t kN = 64;
  AliasTable table(std::vector<double>(kN, 1.0));
  std::vector<size_t> samples;
  table.SampleMany(kN * 2000, &rng, &samples);
  testing::ExpectSamplesMatchWeights(samples,
                                     std::vector<double>(kN, 1.0));
}

TEST(AliasTableTest, SkewedWeightsMatchDistribution) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 2.0, 4.0, 8.0, 16.0, 0.5};
  AliasTable table(weights);
  std::vector<size_t> samples;
  table.SampleMany(200000, &rng, &samples);
  testing::ExpectSamplesMatchWeights(samples, weights);
}

// A weight of +inf (or finite weights whose sum overflows) would leave a
// non-finite total and a table that returns one index forever.
TEST(AliasTableDeathTest, NonFiniteTotalWeightRejected) {
  const std::vector<double> inf_weight = {
      1.0, std::numeric_limits<double>::infinity(), 2.0, 0.5};
  EXPECT_DEATH(AliasTable{inf_weight}, "isfinite\\(total_weight_\\)");
  const double big = std::numeric_limits<double>::max();
  const std::vector<double> overflow = {big, big};
  EXPECT_DEATH(AliasTable{overflow}, "isfinite\\(total_weight_\\)");
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Rng rng(4);
  const std::vector<double> weights = {0.0, 1.0, 0.0, 3.0, 0.0};
  AliasTable table(weights);
  std::vector<size_t> samples;
  table.SampleMany(50000, &rng, &samples);
  for (size_t v : samples) {
    EXPECT_TRUE(v == 1 || v == 3) << "sampled zero-weight element " << v;
  }
  testing::ExpectSamplesMatchWeights(samples, weights);
}

TEST(AliasTableTest, ExtremeWeightRatio) {
  Rng rng(5);
  const std::vector<double> weights = {1e-12, 1.0, 1e12};
  AliasTable table(weights);
  std::vector<size_t> samples;
  table.SampleMany(100000, &rng, &samples);
  // Element 2 dominates by 12 orders of magnitude.
  size_t dominant = 0;
  for (size_t v : samples) dominant += (v == 2);
  EXPECT_EQ(dominant, samples.size());
}

TEST(AliasTableTest, RebuildReplacesDistribution) {
  Rng rng(6);
  AliasTable table(std::vector<double>{1.0, 0.0});
  EXPECT_EQ(table.Sample(&rng), 0u);
  table.Build(std::vector<double>{0.0, 1.0});
  EXPECT_EQ(table.Sample(&rng), 1u);
}

TEST(AliasTableTest, LargeZipfBuild) {
  Rng rng(7);
  std::vector<double> weights(100000);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  AliasTable table(weights);
  EXPECT_EQ(table.size(), weights.size());
  // Smoke the hot path and bounds.
  for (int i = 0; i < 10000; ++i) EXPECT_LT(table.Sample(&rng), weights.size());
}

TEST(AliasTableTest, MemoryIsLinear) {
  AliasTable small(std::vector<double>(1000, 1.0));
  AliasTable large(std::vector<double>(10000, 1.0));
  EXPECT_GE(large.MemoryBytes(), 9 * small.MemoryBytes());
  EXPECT_LE(large.MemoryBytes(), 11 * small.MemoryBytes() + 4096);
}

TEST(AliasTableTest, IndependentStreamsAgreeInLaw) {
  // Two tables over the same weights sampled with different seeds should
  // both pass the same distribution test (cross-check of determinism vs
  // law).
  const std::vector<double> weights = {3.0, 1.0, 2.0, 2.0};
  for (uint64_t seed : {10ull, 20ull, 30ull}) {
    Rng rng(seed);
    AliasTable table(weights);
    std::vector<size_t> samples;
    table.SampleMany(80000, &rng, &samples);
    testing::ExpectSamplesMatchWeights(samples, weights);
  }
}

}  // namespace
}  // namespace iqs
