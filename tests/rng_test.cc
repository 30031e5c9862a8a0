#include "iqs/util/rng.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/simd/dispatch.h"
#include "iqs/util/stats.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedWorks) {
  Rng rng(0);
  uint64_t x = 0;
  for (int i = 0; i < 16; ++i) x |= rng.Next64();
  EXPECT_NE(x, 0u);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowIsUniform) {
  Rng rng(11);
  constexpr size_t kBound = 17;
  std::vector<uint64_t> counts(kBound, 0);
  for (int i = 0; i < 170000; ++i) ++counts[rng.Below(kBound)];
  testing::ExpectDistributionClose(
      counts, std::vector<double>(kBound, 1.0 / kBound));
}

TEST(RngTest, UniformCoversInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.001);
  EXPECT_GT(max, 0.999);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(9);
  const double p = 0.3;
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.Bernoulli(p);
  EXPECT_NEAR(static_cast<double>(heads) / trials, p, 0.01);
}

TEST(RngTest, SplitProducesDistinctStream) {
  Rng parent(13);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.Next64() == child.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, FillDoublesMatchesNextDoubleStream) {
  // Under the SCALAR backend the block path must consume the same xoshiro
  // stream as per-call draws: same seed, same values, in order. This is
  // the bit-stability anchor of the determinism contract (simd/dispatch.h)
  // — SIMD backends are only distribution-equivalent, so pin scalar here.
  simd::ForceBackend(simd::Backend::kScalar);
  Rng block_rng(21);
  Rng scalar_rng(21);
  std::vector<double> block(1000);
  block_rng.FillDoubles(block);
  for (double d : block) EXPECT_EQ(d, scalar_rng.NextDouble());
  // State advanced identically: streams stay in lockstep afterwards.
  EXPECT_EQ(block_rng.Next64(), scalar_rng.Next64());
  simd::ClearForcedBackend();
}

TEST(RngTest, FillDoublesEmptySpanIsNoop) {
  Rng rng(22);
  Rng untouched(22);
  rng.FillDoubles({});
  EXPECT_EQ(rng.Next64(), untouched.Next64());
}

TEST(RngTest, FillBelowStaysInBoundsAndUniform) {
  Rng rng(23);
  constexpr size_t kBound = 23;
  std::vector<uint64_t> buf(230000);
  rng.FillBelow(kBound, buf);
  std::vector<uint64_t> counts(kBound, 0);
  for (uint64_t v : buf) {
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  testing::ExpectDistributionClose(
      counts, std::vector<double>(kBound, 1.0 / kBound));
}

TEST(RngTest, FillBelowExercisesRejectionBound) {
  // bound = 2^63 + 1 gives rejection probability just under 1/2, so the
  // patch-up path runs many times in 4096 draws.
  Rng rng(24);
  const uint64_t bound = (1ull << 63) + 1;
  std::vector<uint64_t> buf(4096);
  rng.FillBelow(bound, buf);
  for (uint64_t v : buf) EXPECT_LT(v, bound);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~uint64_t{0});
  Rng rng(1);
  EXPECT_GE(rng(), Rng::min());
}

TEST(RngForkStreamTest, PureInStateAndStreamId) {
  // Forking the same id twice from the same state yields identical
  // generators, and forking never advances the parent.
  Rng parent(99);
  parent.Next64();  // some arbitrary state, not just the seed
  Rng probe = parent;

  Rng a = parent.ForkStream(7);
  Rng b = parent.ForkStream(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.Next64(), b.Next64());

  for (int i = 0; i < 64; ++i) EXPECT_EQ(parent.Next64(), probe.Next64());
}

TEST(RngForkStreamTest, DistinctIdsDiverge) {
  Rng parent(5);
  Rng a = parent.ForkStream(0);
  Rng b = parent.ForkStream(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngForkStreamTest, DistinctParentStatesDiverge) {
  Rng p1(5);
  Rng p2(5);
  p2.Next64();  // one step apart
  Rng a = p1.ForkStream(0);
  Rng b = p2.ForkStream(0);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngForkStreamTest, SubstreamsAreUniform) {
  // Pool one draw from each of many substreams (the parallel-serving
  // consumption pattern) and chi-square the pooled empirical law.
  Rng parent(123);
  constexpr size_t kBound = 17;
  constexpr size_t kStreams = 170000;
  std::vector<uint64_t> counts(kBound, 0);
  for (size_t stream = 0; stream < kStreams; ++stream) {
    Rng child = parent.ForkStream(stream);
    ++counts[child.Below(kBound)];
  }
  testing::ExpectDistributionClose(
      counts, std::vector<double>(kBound, 1.0 / kBound));
}

TEST(RngForkStreamTest, WithinSubstreamUniform) {
  // A single substream must itself be a healthy generator.
  Rng parent(321);
  Rng child = parent.ForkStream(42);
  constexpr size_t kBound = 17;
  std::vector<uint64_t> counts(kBound, 0);
  for (int i = 0; i < 170000; ++i) ++counts[child.Below(kBound)];
  testing::ExpectDistributionClose(
      counts, std::vector<double>(kBound, 1.0 / kBound));
}

TEST(RngForkStreamTest, AdjacentStreamsUncorrelated) {
  // Lockstep draws from adjacent stream ids (the worst case for a weak
  // id mix) should show no linear correlation.
  Rng parent(777);
  Rng a = parent.ForkStream(1000);
  Rng b = parent.ForkStream(1001);
  constexpr size_t kDraws = 100000;
  std::vector<double> xs(kDraws);
  std::vector<double> ys(kDraws);
  for (size_t i = 0; i < kDraws; ++i) {
    xs[i] = a.NextDouble();
    ys[i] = b.NextDouble();
  }
  // |r| ~ N(0, 1/sqrt(n)) under independence; 5 sigma ≈ 0.016.
  EXPECT_LT(std::abs(PearsonCorrelation(xs, ys)), 5.0 / std::sqrt(kDraws));
}

TEST(RngForkStreamTest, ChildDisagreesWithParentSequence) {
  // The long-jump pushes the child far from the parent's own sequence:
  // lockstep outputs must not collide beyond chance.
  Rng parent(2024);
  Rng child = parent.ForkStream(0);
  Rng parent_copy = parent;
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child.Next64() == parent_copy.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngForkStreamTest, ChildrenBytesUnchanged) {
  // Golden: the first words of ForkStream children over a spread of
  // parent states and stream ids. Parallel-mode output everywhere is a
  // function of these children, so they must never move.
  testing::Fnv fnv;
  for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    Rng parent(seed);
    for (uint64_t id = 0; id < 1000; ++id) {
      Rng child = parent.ForkStream(id * 7919);
      for (int i = 0; i < 4; ++i) fnv.U64(child.Next64());
    }
    parent.Next64();
    fnv.U64(parent.ForkStream(~uint64_t{0}).Next64());
  }
  EXPECT_EQ(fnv.h, 0x3fafe689107f87dfULL);
}

TEST(RngLongJumpTest, TableMatchesBitwiseJump) {
  // The table path must equal the polynomial evaluation on arbitrary
  // states: 10k seeded states, each advanced a seed-dependent amount.
  Rng states(31337);
  for (int trial = 0; trial < 10000; ++trial) {
    Rng bitwise(states.Next64());
    for (uint64_t k = states.Below(4); k > 0; --k) bitwise.Next64();
    Rng table = bitwise;
    bitwise.LongJump();
    table.LongJumpByTable();
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(bitwise.Next64(), table.Next64()) << "trial " << trial;
    }
  }
}

TEST(RngLongJumpTest, DeterministicAndDiverges) {
  Rng a(9);
  Rng b(9);
  a.LongJump();
  b.LongJump();
  EXPECT_EQ(a.Next64(), b.Next64());

  Rng c(9);
  int same = 0;
  Rng d(9);
  d.LongJump();
  for (int i = 0; i < 100; ++i) same += (c.Next64() == d.Next64());
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace iqs
