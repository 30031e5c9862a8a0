// Tests for the shared cover-sampling layer: CoverPlan bookkeeping,
// CoverExecutor::Split invariants (per-query multinomial budgets over the
// flat group arena), the ExecuteOverSampler lowering, and the FunctionRef
// shim used by CoverageEngine::SampleWithRejection.

#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/cover/cover_executor.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/cover/coverage_engine.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/util/function_ref.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(CoverPlanTest, TracksQueriesGroupsAndBudgets) {
  CoverPlan plan;
  plan.BeginQuery(10);
  plan.AddGroup(0, 4, 2.0, 7);
  plan.AddGroup(10, 14, 3.0);
  plan.BeginQuery(5);  // zero-group query: contributes no samples
  plan.BeginQuery(3);
  plan.AddGroup(20, 20, 1.0);

  EXPECT_EQ(plan.num_queries(), 3u);
  EXPECT_EQ(plan.num_groups(), 3u);
  EXPECT_EQ(plan.budget(0), 10u);
  EXPECT_EQ(plan.budget(1), 5u);
  EXPECT_EQ(plan.budget(2), 3u);
  EXPECT_EQ(plan.GroupsFor(0).size(), 2u);
  EXPECT_EQ(plan.GroupsFor(1).size(), 0u);
  EXPECT_EQ(plan.GroupsFor(2).size(), 1u);
  EXPECT_EQ(plan.GroupsFor(0)[0].tag, 7u);
  EXPECT_EQ(plan.TotalSamples(), 13u);  // query 1 has no groups

  plan.Clear();
  EXPECT_EQ(plan.num_queries(), 0u);
  EXPECT_EQ(plan.num_groups(), 0u);
}

TEST(CoverExecutorTest, SplitRespectsPerQueryBudgets) {
  CoverPlan plan;
  plan.BeginQuery(100);
  plan.AddGroup(0, 9, 1.0);
  plan.AddGroup(10, 19, 3.0);
  plan.BeginQuery(7);  // no groups
  plan.BeginQuery(55);
  plan.AddGroup(20, 29, 2.0);
  plan.AddGroup(30, 39, 2.0);
  plan.AddGroup(40, 49, 2.0);

  Rng rng(11);
  ScratchArena arena;
  const CoverSplit split = CoverExecutor::Split(plan, &rng, &arena);

  ASSERT_EQ(split.counts.size(), plan.num_groups());
  ASSERT_EQ(split.offsets.size(), plan.num_groups() + 1);
  EXPECT_EQ(split.total, 155u);
  EXPECT_EQ(split.counts[0] + split.counts[1], 100u);
  EXPECT_EQ(split.counts[2] + split.counts[3] + split.counts[4], 55u);
  // Offsets are the prefix sums of counts.
  size_t acc = 0;
  for (size_t g = 0; g < split.counts.size(); ++g) {
    EXPECT_EQ(split.offsets[g], acc);
    acc += split.counts[g];
  }
  EXPECT_EQ(split.offsets[split.counts.size()], acc);
}

TEST(CoverExecutorTest, SplitBudgetsFollowGroupWeights) {
  // Over many rounds the multinomial split must put weight-proportional
  // counts on each group.
  CoverPlan plan;
  plan.BeginQuery(64);
  plan.AddGroup(0, 0, 1.0);
  plan.AddGroup(1, 1, 2.0);
  plan.AddGroup(2, 2, 5.0);

  Rng rng(12);
  ScratchArena arena;
  std::vector<size_t> samples;
  for (int round = 0; round < 4000; ++round) {
    arena.Reset();
    const CoverSplit split = CoverExecutor::Split(plan, &rng, &arena);
    for (size_t g = 0; g < 3; ++g) {
      for (uint32_t k = 0; k < split.counts[g]; ++k) samples.push_back(g);
    }
  }
  testing::ExpectSamplesMatchWeights(samples, {1.0, 2.0, 5.0});
}

TEST(CoverExecutorTest, ExecuteOverSamplerMatchesCoverLaw) {
  // Three disjoint groups over a weighted position space; draws must land
  // per-element proportional to weight restricted to the union.
  const size_t n = 60;
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) weights[i] = 1.0 + (i % 7);
  const AugRangeSampler sampler(weights);

  CoverPlan plan;
  plan.BeginQuery(48);
  // Sum over positions [lo, hi] through pointers, so the end bound never
  // indexes past the vector.
  auto range_weight = [&](size_t lo, size_t hi) {
    return std::accumulate(weights.data() + lo, weights.data() + hi + 1, 0.0);
  };
  plan.AddGroup(0, 9, range_weight(0, 9));
  plan.AddGroup(20, 29, range_weight(20, 29));
  plan.AddGroup(50, 59, range_weight(50, 59));

  Rng rng(13);
  ScratchArena arena;
  std::vector<size_t> out;
  for (int round = 0; round < 3000; ++round) {
    arena.Reset();
    CoverExecutor::ExecuteOverSampler(plan, sampler, &rng, &arena,
                                      BatchOptions{}, &out);
  }
  std::vector<double> expected(n, 0.0);
  for (size_t i = 0; i < 10; ++i) expected[i] = weights[i];
  for (size_t i = 20; i < 30; ++i) expected[i] = weights[i];
  for (size_t i = 50; i < 60; ++i) expected[i] = weights[i];
  testing::ExpectSamplesMatchWeights(out, expected);
}

TEST(CoverageEngineTest, SampleBatchServesMultipleQueriesAtOnce) {
  const size_t n = 40;
  std::vector<double> weights(n, 1.0);
  const CoverageEngine engine(weights);

  CoverPlan plan;
  plan.BeginQuery(16);
  plan.AddGroup(0, 19, 20.0);
  plan.BeginQuery(0);  // zero budget
  plan.AddGroup(0, 39, 40.0);
  plan.BeginQuery(8);
  plan.AddGroup(30, 39, 10.0);

  Rng rng(14);
  ScratchArena arena;
  std::vector<size_t> out;
  engine.SampleBatch(plan, &rng, &arena, &out);
  ASSERT_EQ(out.size(), 24u);
  // Per-query slices are contiguous in plan order.
  for (size_t i = 0; i < 16; ++i) EXPECT_LE(out[i], 19u);
  for (size_t i = 16; i < 24; ++i) {
    EXPECT_GE(out[i], 30u);
    EXPECT_LE(out[i], 39u);
  }
}

TEST(FunctionRefTest, WrapsLambdasWithoutAllocation) {
  int calls = 0;
  auto counter = [&](size_t v) {
    ++calls;
    return v % 2 == 0;
  };
  FunctionRef<bool(size_t)> ref = counter;
  EXPECT_TRUE(ref(4));
  EXPECT_FALSE(ref(3));
  EXPECT_EQ(calls, 2);
  static_assert(sizeof(FunctionRef<bool(size_t)>) <= 2 * sizeof(void*));
}

TEST(CoverageEngineTest, RejectionPathDrawsConditionalLaw) {
  // Accept only even positions: the output law must be the weight
  // distribution conditioned on even positions, and each call must yield
  // exactly s samples.
  const size_t n = 50;
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) weights[i] = 1.0 + (i % 3);
  const CoverageEngine engine(weights);
  const std::vector<CoverRange> cover = {{5, 24, 0.0}, {30, 44, 0.0}};
  std::vector<CoverRange> weighted_cover = cover;
  for (CoverRange& range : weighted_cover) {
    for (size_t i = range.lo; i <= range.hi; ++i) range.weight += weights[i];
  }

  Rng rng(15);
  ScratchArena arena;
  std::vector<size_t> out;
  const size_t s = 32;
  for (int round = 0; round < 2000; ++round) {
    const size_t before = out.size();
    arena.Reset();
    engine.SampleWithRejection(
        weighted_cover, s, [](size_t p) { return p % 2 == 0; }, &rng, &arena,
        &out);
    ASSERT_EQ(out.size(), before + s);
  }
  std::vector<double> expected(n, 0.0);
  for (const CoverRange& range : cover) {
    for (size_t i = range.lo; i <= range.hi; ++i) {
      if (i % 2 == 0) expected[i] = weights[i];
    }
  }
  testing::ExpectSamplesMatchWeights(out, expected);
}

}  // namespace
}  // namespace iqs
