// Cross-implementation tests for the 1-D weighted range samplers
// (Sections 3.2, 4.1, 4.2 of the paper): distribution correctness against
// the weights, range containment, interval resolution, and — the point of
// IQS — cross-query independence.

#include "iqs/range/range_sampler.h"

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/cover/complement_sampler.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/dynamic_range_sampler.h"
#include "iqs/range/logarithmic_range_sampler.h"
#include "iqs/range/naive_range_sampler.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/stats.h"
#include "test_util.h"

namespace iqs {
namespace {

enum class SamplerKind { kBst, kAug, kChunked, kChunkedTiny, kNaive };

std::unique_ptr<RangeSampler> MakeSampler(SamplerKind kind,
                                          const std::vector<double>& keys,
                                          const std::vector<double>& weights) {
  switch (kind) {
    case SamplerKind::kBst:
      return std::make_unique<BstRangeSampler>(keys, weights);
    case SamplerKind::kAug:
      return std::make_unique<AugRangeSampler>(keys, weights);
    case SamplerKind::kChunked:
      return std::make_unique<ChunkedRangeSampler>(keys, weights);
    case SamplerKind::kChunkedTiny:
      // Chunk size 2 stresses every boundary case of the chunk split.
      return std::make_unique<ChunkedRangeSampler>(keys, weights, 2);
    case SamplerKind::kNaive:
      return std::make_unique<NaiveRangeSampler>(keys, weights);
  }
  return nullptr;
}

class RangeSamplerTest : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(RangeSamplerTest, SamplesStayInRange) {
  Rng rng(1);
  const auto keys = UniformKeys(300, &rng);
  const auto weights = ZipfWeights(300, 1.0, &rng);
  const auto sampler = MakeSampler(GetParam(), keys, weights);
  for (int trial = 0; trial < 200; ++trial) {
    size_t a = rng.Below(300);
    size_t b = rng.Below(300);
    if (a > b) std::swap(a, b);
    std::vector<size_t> out;
    sampler->QueryPositions(a, b, 20, &rng, &out);
    ASSERT_EQ(out.size(), 20u);
    for (size_t p : out) {
      EXPECT_GE(p, a);
      EXPECT_LE(p, b);
    }
  }
}

TEST_P(RangeSamplerTest, DistributionMatchesWeightsWithinRange) {
  Rng rng(2);
  const size_t n = 128;
  const auto keys = UniformKeys(n, &rng);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) weights[i] = 0.2 + rng.NextDouble() * 3.0;
  const auto sampler = MakeSampler(GetParam(), keys, weights);

  // Several ranges, including chunk-straddling and tiny ones.
  const std::pair<size_t, size_t> ranges[] = {
      {0, n - 1}, {0, 0}, {n - 1, n - 1}, {3, 17}, {40, 90}, {1, n - 2}};
  for (const auto& [a, b] : ranges) {
    std::vector<size_t> out;
    sampler->QueryPositions(a, b, 120000, &rng, &out);
    std::vector<uint64_t> counts(b - a + 1, 0);
    for (size_t p : out) ++counts[p - a];
    std::vector<double> range_weights(weights.begin() + a,
                                      weights.begin() + b + 1);
    testing::ExpectDistributionClose(counts,
                                     testing::Normalize(range_weights));
  }
}

TEST_P(RangeSamplerTest, KeyIntervalQueries) {
  Rng rng(3);
  const auto keys = UniformKeys(100, &rng);
  const std::vector<double> weights(100, 1.0);
  const auto sampler = MakeSampler(GetParam(), keys, weights);

  // Interval covering everything.
  std::vector<size_t> out;
  EXPECT_TRUE(sampler->Query(-1.0, 2.0, 5, &rng, &out));
  EXPECT_EQ(out.size(), 5u);

  // Interval covering nothing (between two adjacent keys).
  out.clear();
  const double gap_lo = (keys[10] + keys[11]) / 2.0;
  const double gap_hi = std::nextafter(keys[11], 0.0);
  EXPECT_FALSE(sampler->Query(gap_lo, gap_hi, 5, &rng, &out));
  EXPECT_TRUE(out.empty());

  // Inverted interval.
  EXPECT_FALSE(sampler->Query(0.9, 0.1, 5, &rng, &out));

  // Exact single key.
  out.clear();
  EXPECT_TRUE(sampler->Query(keys[42], keys[42], 7, &rng, &out));
  ASSERT_EQ(out.size(), 7u);
  for (size_t p : out) EXPECT_EQ(p, 42u);
}

TEST_P(RangeSamplerTest, ZeroSamplesIsNoop) {
  Rng rng(4);
  const auto keys = UniformKeys(50, &rng);
  const std::vector<double> weights(50, 1.0);
  const auto sampler = MakeSampler(GetParam(), keys, weights);
  std::vector<size_t> out;
  sampler->QueryPositions(5, 20, 0, &rng, &out);
  EXPECT_TRUE(out.empty());
}

TEST_P(RangeSamplerTest, RepeatedIdenticalQueriesAreIndependent) {
  // The defining IQS property (paper equation (1)): repeating the same
  // query must give fresh samples. We issue the same query many times with
  // s = 1 over equal weights and check (a) the pooled marginal is uniform
  // and (b) consecutive outputs are uncorrelated.
  Rng rng(5);
  const size_t n = 64;
  const auto keys = UniformKeys(n, &rng);
  const std::vector<double> weights(n, 1.0);
  const auto sampler = MakeSampler(GetParam(), keys, weights);

  const size_t a = 8;
  const size_t b = 55;
  std::vector<double> series;
  std::vector<uint64_t> counts(b - a + 1, 0);
  for (int q = 0; q < 60000; ++q) {
    std::vector<size_t> out;
    sampler->QueryPositions(a, b, 1, &rng, &out);
    series.push_back(static_cast<double>(out[0]));
    ++counts[out[0] - a];
  }
  testing::ExpectDistributionClose(
      counts, std::vector<double>(b - a + 1, 1.0 / (b - a + 1)));

  std::vector<double> lagged(series.begin() + 1, series.end());
  series.pop_back();
  EXPECT_LT(std::abs(PearsonCorrelation(series, lagged)), 0.02)
      << "consecutive identical queries are correlated";
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, RangeSamplerTest,
                         ::testing::Values(SamplerKind::kBst,
                                           SamplerKind::kAug,
                                           SamplerKind::kChunked,
                                           SamplerKind::kChunkedTiny,
                                           SamplerKind::kNaive),
                         [](const auto& info) {
                           switch (info.param) {
                             case SamplerKind::kBst:
                               return "Bst";
                             case SamplerKind::kAug:
                               return "Aug";
                             case SamplerKind::kChunked:
                               return "Chunked";
                             case SamplerKind::kChunkedTiny:
                               return "ChunkedTiny";
                             case SamplerKind::kNaive:
                               return "Naive";
                           }
                           return "Unknown";
                         });

TEST(ChunkedRangeSamplerTest, ChunkGeometry) {
  Rng rng(6);
  const auto keys = UniformKeys(1000, &rng);
  const std::vector<double> weights(1000, 1.0);
  ChunkedRangeSampler sampler(keys, weights);
  EXPECT_GE(sampler.chunk_size(), 8u);  // ~log2(1000)
  EXPECT_LE(sampler.chunk_size(), 16u);
  EXPECT_EQ(sampler.num_chunks(),
            (1000 + sampler.chunk_size() - 1) / sampler.chunk_size());
}

TEST(ChunkedRangeSamplerTest, UnevenLastChunk) {
  // n not divisible by chunk size: last chunk is short; ensure samples
  // from the tail are still correct.
  Rng rng(7);
  const auto keys = UniformKeys(103, &rng);
  std::vector<double> weights(103, 1.0);
  weights[102] = 50.0;
  ChunkedRangeSampler sampler(keys, weights, 10);
  std::vector<size_t> out;
  sampler.QueryPositions(95, 102, 100000, &rng, &out);
  std::vector<uint64_t> counts(8, 0);
  for (size_t p : out) ++counts[p - 95];
  std::vector<double> range_weights(weights.begin() + 95, weights.end());
  testing::ExpectDistributionClose(counts, testing::Normalize(range_weights));
}

TEST(ChunkedRangeSamplerTest, DegenerateChunkSizes) {
  Rng rng(9);
  const auto keys = UniformKeys(40, &rng);
  std::vector<double> weights(40);
  for (double& w : weights) w = 0.5 + rng.NextDouble();

  // chunk_size 1: every chunk is a single element.
  ChunkedRangeSampler unit_chunks(keys, weights, 1);
  // chunk_size >= n: the whole array is one chunk.
  ChunkedRangeSampler one_chunk(keys, weights, 100);
  for (const ChunkedRangeSampler* sampler : {&unit_chunks, &one_chunk}) {
    std::vector<size_t> out;
    sampler->QueryPositions(5, 33, 120000, &rng, &out);
    std::vector<uint64_t> counts(29, 0);
    for (size_t p : out) {
      ASSERT_GE(p, 5u);
      ASSERT_LE(p, 33u);
      ++counts[p - 5];
    }
    std::vector<double> range_weights(weights.begin() + 5,
                                      weights.begin() + 34);
    testing::ExpectDistributionClose(counts,
                                     testing::Normalize(range_weights));
  }
}

TEST(ChunkedRangeSamplerTest, SingleElementDataset) {
  Rng rng(10);
  ChunkedRangeSampler sampler(std::vector<double>{0.5},
                              std::vector<double>{3.0});
  std::vector<size_t> out;
  sampler.QueryPositions(0, 0, 7, &rng, &out);
  ASSERT_EQ(out.size(), 7u);
  for (size_t p : out) EXPECT_EQ(p, 0u);
}

TEST(RangeSamplerSpaceTest, ChunkingBeatsAugmentationAsymptotically) {
  // Theorem 3's point: O(n) vs O(n log n). At n = 2^16 the gap must be
  // clearly visible.
  Rng rng(8);
  const size_t n = 1 << 16;
  const auto keys = UniformKeys(n, &rng);
  const std::vector<double> weights(n, 1.0);
  AugRangeSampler aug(keys, weights);
  ChunkedRangeSampler chunked(keys, weights);
  EXPECT_LT(chunked.MemoryBytes() * 3, aug.MemoryBytes());
}

// A position-keyed sampler (weights only) resolves every interval exactly
// as the keyed sampler over the iota keys 0..n-1 does, and draws the same
// bytes: the key array it no longer stores was never read by a draw.
TEST(PositionKeyedSamplerTest, ResolvesLikeIotaKeys) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t n : {size_t{1}, size_t{7}, size_t{1000}}) {
    std::vector<double> iota(n);
    std::iota(iota.begin(), iota.end(), 0.0);
    Rng weight_rng(11 + n);
    std::vector<double> weights(n);
    for (double& w : weights) w = 0.5 + weight_rng.NextDouble();

    const ChunkedRangeSampler keyed_chunked(iota, weights);
    const ChunkedRangeSampler positional_chunked(weights);
    const AugRangeSampler keyed_aug(iota, weights);
    const AugRangeSampler positional_aug(weights);
    EXPECT_EQ(positional_chunked.n(), n);
    EXPECT_EQ(positional_aug.n(), n);

    const double m = static_cast<double>(n);
    const double k = std::floor(m / 2.0);
    const std::vector<double> bounds = {
        -kInf, -1.5,    -0.0,    0.0,     0.5,   k,    k - 0.5,
        k + 0.5, m - 1.0, m - 0.5, m,      kInf,  nan};
    const std::pair<const RangeSampler*, const RangeSampler*> pairs[] = {
        {&keyed_chunked, &positional_chunked}, {&keyed_aug, &positional_aug}};
    for (const auto& [keyed, positional] : pairs) {
      for (const double lo : bounds) {
        for (const double hi : bounds) {
          size_t ka = 0, kb = 0, pa = 0, pb = 0;
          const bool k_ok = keyed->ResolveInterval(lo, hi, &ka, &kb);
          const bool p_ok = positional->ResolveInterval(lo, hi, &pa, &pb);
          ASSERT_EQ(k_ok, p_ok) << "n=" << n << " [" << lo << ", " << hi
                                << "] " << positional->name();
          if (!k_ok) continue;
          EXPECT_EQ(ka, pa) << "n=" << n << " [" << lo << ", " << hi << "]";
          EXPECT_EQ(kb, pb) << "n=" << n << " [" << lo << ", " << hi << "]";
        }
      }

      std::vector<BatchQuery> queries;
      for (size_t i = 0; i < 16; ++i) {
        queries.push_back({static_cast<double>(i % n) - 0.25,
                           static_cast<double>((7 * i) % n) + 0.25, 9});
      }
      Rng keyed_rng(42);
      Rng positional_rng(42);
      ScratchArena arena;
      BatchResult keyed_result;
      BatchResult positional_result;
      keyed->QueryBatch(queries, &keyed_rng, &arena, &keyed_result);
      positional->QueryBatch(queries, &positional_rng, &arena,
                             &positional_result);
      EXPECT_EQ(keyed_result.resolved, positional_result.resolved);
      EXPECT_EQ(keyed_result.positions, positional_result.positions);
    }

    // The weights-only sampler stores no key array: exactly 8 B per
    // element less than the iota-keyed one, and nothing else differs.
    EXPECT_EQ(keyed_chunked.MemoryBytes() - positional_chunked.MemoryBytes(),
              n * sizeof(double));
    EXPECT_EQ(keyed_aug.MemoryBytes() - positional_aug.MemoryBytes(),
              n * sizeof(double));
  }
}

// A NaN bound is no interval: every keyed entry point reports the query
// unresolved and draws nothing, instead of sampling the whole set.
TEST(RangeSamplerBoundaryTest, NaNBoundsAreUnresolved) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> intervals[] = {
      {nan, nan}, {3.0, nan}, {nan, 3.0}};
  const std::vector<double> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> weights(keys.size(), 1.0);
  const ChunkedRangeSampler keyed(keys, weights);
  const ChunkedRangeSampler positional(weights);
  LogarithmicRangeSampler logarithmic;
  Rng build_rng(3);
  DynamicRangeSampler dynamic(&build_rng);
  for (const double key : keys) {
    logarithmic.Insert(key, 1.0);
    dynamic.Insert(key, 1.0);
  }
  const ComplementRangeSampler complement(keys);
  const RangeSampler* samplers[] = {&keyed, &positional};

  Rng rng(5);
  ScratchArena arena;
  for (const auto& [lo, hi] : intervals) {
    for (const RangeSampler* sampler : samplers) {
      size_t a = 0;
      size_t b = 0;
      EXPECT_FALSE(sampler->ResolveInterval(lo, hi, &a, &b));
      std::vector<size_t> out;
      EXPECT_FALSE(sampler->Query(lo, hi, 5, &rng, &out));
      EXPECT_TRUE(out.empty());
      const BatchQuery query{lo, hi, 5};
      BatchResult result;
      sampler->QueryBatch(std::span<const BatchQuery>(&query, 1), &rng,
                          &arena, &result);
      ASSERT_EQ(result.num_queries(), 1u);
      EXPECT_EQ(result.resolved[0], 0);
      EXPECT_TRUE(result.positions.empty());
    }

    std::vector<double> keys_out;
    EXPECT_FALSE(logarithmic.Query(lo, hi, 5, &rng, &keys_out));
    EXPECT_FALSE(dynamic.Query(lo, hi, 5, &rng, &keys_out));
    EXPECT_TRUE(keys_out.empty());
    const KeyBatchQuery key_query{lo, hi, 5};
    KeyBatchResult key_result;
    logarithmic.QueryBatch(std::span<const KeyBatchQuery>(&key_query, 1),
                           &rng, &arena, &key_result);
    ASSERT_EQ(key_result.num_queries(), 1u);
    EXPECT_EQ(key_result.resolved[0], 0);
    EXPECT_TRUE(key_result.keys.empty());
    EXPECT_EQ(logarithmic.RangeWeight(lo, hi), 0.0);
    EXPECT_EQ(dynamic.RangeWeight(lo, hi), 0.0);

    std::vector<size_t> out;
    EXPECT_FALSE(complement.QueryApprox(lo, hi, 5, &rng, &out));
    EXPECT_FALSE(complement.QueryExact(lo, hi, 5, &rng, &out));
    EXPECT_TRUE(out.empty());
  }
}

}  // namespace
}  // namespace iqs
