#include "iqs/alias/quantized_alias.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/alias/alias_table.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(QuantizedAliasTest, SingleElement) {
  Rng rng(1);
  QuantizedAlias alias(std::vector<double>{1.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(alias.Sample(&rng), 0u);
}

TEST(QuantizedAliasTest, AssignedProbabilitiesSumToOne) {
  Rng rng(2);
  const std::vector<double> weights = {1.0, 5.0, 0.25, 2.0, 9.0};
  QuantizedAlias alias(weights);
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    total += alias.AssignedProbability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(QuantizedAliasTest, EpsilonUniformGuarantee) {
  // Uniform weights: every probability must lie within the paper's
  // epsilon-uniform band for eps = 2^-15.
  constexpr size_t kN = 1000;
  QuantizedAlias alias(std::vector<double>(kN, 1.0));
  const double eps = std::pow(2.0, -15);
  const double lo = 1.0 / ((1.0 + eps) * kN);
  const double hi = 1.0 / ((1.0 - eps) * kN);
  for (size_t i = 0; i < kN; ++i) {
    const double p = alias.AssignedProbability(i);
    EXPECT_GE(p, lo) << "element " << i;
    EXPECT_LE(p, hi) << "element " << i;
  }
}

TEST(QuantizedAliasTest, QuantizationErrorBounded) {
  // General weights: absolute deviation per element <= 2 * 2^-16 / n.
  Rng rng(3);
  const size_t n = 64;
  std::vector<double> weights(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 0.1 + rng.NextDouble();
    total += weights[i];
  }
  QuantizedAlias alias(weights);
  const double bound = 2.0 / 65536.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(alias.AssignedProbability(i), weights[i] / total, bound);
  }
}

TEST(QuantizedAliasTest, EmpiricalDistributionMatches) {
  Rng rng(4);
  const std::vector<double> weights = {4.0, 1.0, 3.0, 2.0};
  QuantizedAlias alias(weights);
  std::vector<size_t> samples;
  for (int i = 0; i < 200000; ++i) samples.push_back(alias.Sample(&rng));
  testing::ExpectSamplesMatchWeights(samples, weights);
}

TEST(QuantizedAliasTest, SmallerThanExactAlias) {
  const std::vector<double> weights(10000, 1.0);
  AliasTable exact(weights);
  QuantizedAlias quantized(weights);
  // 6 bytes/urn vs 16 bytes/urn.
  EXPECT_LT(quantized.MemoryBytes() * 2, exact.MemoryBytes());
}

TEST(QuantizedAliasTest, SampleBlockMatchesWeights) {
  // Quantization bias is ~2^-15 relative — far below what chi-square at
  // this sample count can detect, so the raw weights are the reference.
  const std::vector<double> weights = testing::VariedWeights(23);
  QuantizedAlias table(weights);
  Rng rng(107);
  std::vector<size_t> out;
  table.SampleMany(230000, &rng, &out);
  testing::ExpectSamplesMatchWeights(out, weights);
}

}  // namespace
}  // namespace iqs
