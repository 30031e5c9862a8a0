#include "iqs/range/logarithmic_range_sampler.h"

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(LogarithmicSamplerTest, EmptyAndSingle) {
  Rng rng(1);
  LogarithmicRangeSampler sampler;
  std::vector<double> out;
  EXPECT_FALSE(sampler.Query(0.0, 1.0, 3, &rng, &out));
  sampler.Insert(0.5, 2.0);
  EXPECT_EQ(sampler.size(), 1u);
  ASSERT_TRUE(sampler.Query(0.0, 1.0, 3, &rng, &out));
  ASSERT_EQ(out.size(), 3u);
  for (double key : out) EXPECT_DOUBLE_EQ(key, 0.5);
  EXPECT_FALSE(sampler.Query(0.6, 1.0, 3, &rng, &out));
}

TEST(LogarithmicSamplerTest, ComponentCountIsLogarithmic) {
  Rng rng(2);
  LogarithmicRangeSampler sampler;
  for (int i = 0; i < 1000; ++i) {
    sampler.Insert(rng.NextDouble(), 1.0);
  }
  // 1000 = 0b1111101000: 6 one-bits.
  EXPECT_EQ(sampler.num_components(), 6u);
  EXPECT_LE(sampler.num_components(),
            static_cast<size_t>(std::log2(1000)) + 1);
}

TEST(LogarithmicSamplerTest, LawMatchesWeightsAfterIncrementalInserts) {
  Rng rng(3);
  LogarithmicRangeSampler sampler;
  const size_t n = 300;
  const auto keys = UniformKeys(n, &rng);
  std::vector<double> weights(n);
  // Insert in random order so merges interleave the key space.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  for (size_t i : order) {
    weights[i] = 0.25 + 2.0 * rng.NextDouble();
    sampler.Insert(keys[i], weights[i]);
  }
  ASSERT_EQ(sampler.size(), n);

  const size_t a = 40;
  const size_t b = 260;
  std::vector<double> out;
  ASSERT_TRUE(sampler.Query(keys[a], keys[b], 200000, &rng, &out));
  std::map<double, size_t> index_of;
  for (size_t i = a; i <= b; ++i) index_of[keys[i]] = i - a;
  std::vector<uint64_t> counts(b - a + 1, 0);
  for (double key : out) {
    const auto it = index_of.find(key);
    ASSERT_NE(it, index_of.end()) << "sampled key outside range";
    ++counts[it->second];
  }
  std::vector<double> range_weights(weights.begin() + a,
                                    weights.begin() + b + 1);
  testing::ExpectDistributionClose(counts, testing::Normalize(range_weights));
}

TEST(LogarithmicSamplerTest, RangeWeightMatchesOracle) {
  Rng rng(4);
  LogarithmicRangeSampler sampler;
  std::vector<std::pair<double, double>> elements;
  for (int i = 0; i < 257; ++i) {
    const double key = static_cast<double>(i) * 1.5;
    const double weight = 1.0 + (i % 4);
    sampler.Insert(key, weight);
    elements.emplace_back(key, weight);
  }
  for (int trial = 0; trial < 100; ++trial) {
    double lo = rng.NextDouble() * 400.0 - 10.0;
    double hi = rng.NextDouble() * 400.0 - 10.0;
    if (lo > hi) std::swap(lo, hi);
    double want = 0.0;
    for (const auto& [key, weight] : elements) {
      if (key >= lo && key <= hi) want += weight;
    }
    EXPECT_NEAR(sampler.RangeWeight(lo, hi), want, 1e-9);
  }
}

TEST(LogarithmicSamplerTest, InterleavedInsertsAndQueries) {
  // Queries between inserts must always reflect exactly the inserted set.
  Rng rng(5);
  LogarithmicRangeSampler sampler;
  std::vector<double> inserted;
  for (int round = 0; round < 200; ++round) {
    const double key = static_cast<double>(round) + 0.25;
    sampler.Insert(key, 1.0);
    inserted.push_back(key);
    if (round % 17 == 0) {
      std::vector<double> out;
      ASSERT_TRUE(sampler.Query(-1.0, 1000.0, 10, &rng, &out));
      for (double k : out) {
        EXPECT_TRUE(std::find(inserted.begin(), inserted.end(), k) !=
                    inserted.end());
      }
      EXPECT_NEAR(sampler.RangeWeight(-1.0, 1000.0),
                  static_cast<double>(inserted.size()), 1e-9);
    }
  }
}

TEST(LogarithmicSamplerTest, MonotoneInsertOrderWorks) {
  Rng rng(6);
  LogarithmicRangeSampler sampler;
  for (int i = 0; i < 512; ++i) {
    sampler.Insert(static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(sampler.num_components(), 1u);  // 512 = 2^9: single component
  std::vector<double> out;
  ASSERT_TRUE(sampler.Query(100.0, 199.0, 50000, &rng, &out));
  std::vector<uint64_t> counts(100, 0);
  for (double key : out) ++counts[static_cast<size_t>(key) - 100];
  testing::ExpectDistributionClose(counts,
                                   std::vector<double>(100, 0.01));
}

TEST(LogarithmicSamplerTest, RepeatedQueriesIndependent) {
  Rng rng(7);
  LogarithmicRangeSampler sampler;
  for (int i = 0; i < 100; ++i) sampler.Insert(i * 0.01, 1.0);
  std::vector<double> first;
  std::vector<double> second;
  sampler.Query(0.0, 1.0, 30, &rng, &first);
  sampler.Query(0.0, 1.0, 30, &rng, &second);
  EXPECT_NE(first, second);
}

TEST(LogarithmicSamplerTest, BatchMatchesSingleQueryLaw) {
  // Chi-square equivalence (alpha 1e-6): QueryBatch — one CoverExecutor
  // split over all components of all queries, draws coalesced by
  // component — must match the looped single path.
  Rng rng(61);
  LogarithmicRangeSampler sampler;
  const size_t n = 300;  // several live components (300 = 0b100101100)
  const auto keys = UniformKeys(n, &rng);
  std::vector<double> weights(n);
  std::map<double, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 + (i % 4);
    index[keys[i]] = i;
  }
  // Random insertion order so merges interleave the key space.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  for (size_t i : order) sampler.Insert(keys[i], weights[i]);
  ASSERT_GT(sampler.num_components(), 2u);

  const double lo = keys[20];
  const double hi = keys[260];
  const size_t s = 64;
  const size_t rounds = 1600;

  Rng single_rng(62);
  std::vector<size_t> single;
  std::vector<double> scratch;
  for (size_t round = 0; round < rounds; ++round) {
    scratch.clear();
    ASSERT_TRUE(sampler.Query(lo, hi, s, &single_rng, &scratch));
    for (double key : scratch) single.push_back(index.at(key));
  }

  Rng batch_rng(63);
  ScratchArena arena;
  KeyBatchResult result;
  const std::vector<KeyBatchQuery> queries(8, KeyBatchQuery{lo, hi, s});
  std::vector<size_t> batch;
  for (size_t round = 0; round < rounds / queries.size(); ++round) {
    sampler.QueryBatch(queries, &batch_rng, &arena, &result);
    ASSERT_EQ(result.keys.size(), queries.size() * s);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(result.resolved[i], 1);
    }
    for (double key : result.keys) batch.push_back(index.at(key));
  }

  std::vector<double> expected(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] >= lo && keys[i] <= hi) expected[i] = weights[i];
  }
  testing::ExpectSamplesMatchWeights(single, expected);
  testing::ExpectSamplesMatchWeights(batch, expected);
}

TEST(LogarithmicSamplerTest, BatchFlagsEmptyIntervalsAndEmptySampler) {
  Rng rng(64);
  LogarithmicRangeSampler empty;
  const std::vector<KeyBatchQuery> probe = {{0.0, 1.0, 4}};
  ScratchArena arena;
  KeyBatchResult result;
  empty.QueryBatch(probe, &rng, &arena, &result);
  ASSERT_EQ(result.num_queries(), 1u);
  EXPECT_EQ(result.resolved[0], 0);
  EXPECT_TRUE(result.keys.empty());

  LogarithmicRangeSampler sampler;
  sampler.Insert(0.25, 1.0);
  sampler.Insert(0.75, 2.0);
  const std::vector<KeyBatchQuery> queries = {
      {0.3, 0.6, 8},   // gap between keys
      {0.0, 1.0, 8},
      {0.7, 0.8, 0},   // resolved but zero samples
  };
  sampler.QueryBatch(queries, &rng, &arena, &result);
  ASSERT_EQ(result.num_queries(), 3u);
  EXPECT_EQ(result.resolved[0], 0);
  EXPECT_EQ(result.resolved[1], 1);
  EXPECT_EQ(result.resolved[2], 1);
  EXPECT_EQ(result.SamplesFor(0).size(), 0u);
  EXPECT_EQ(result.SamplesFor(1).size(), 8u);
  EXPECT_EQ(result.SamplesFor(2).size(), 0u);
}

TEST(LogarithmicSamplerDeathTest, InsertRejectsNonFiniteOrNonPositiveWeight) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    LogarithmicRangeSampler sampler;
    sampler.Insert(0.25, 1.0);
    EXPECT_DEATH(sampler.Insert(0.5, bad), "isfinite\\(weight\\)") << bad;
  }
}

TEST(LogarithmicSamplerDeathTest, InsertRejectsNonFiniteKey) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    LogarithmicRangeSampler sampler;
    EXPECT_DEATH(sampler.Insert(bad, 1.0), "isfinite\\(key\\)") << bad;
  }
}

}  // namespace
}  // namespace iqs
