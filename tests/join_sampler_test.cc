// Tests for the join-sampling module (iqs/join/): the sweep enumerator
// against a nested loop, JoinSize against exact enumeration, the
// sampling law (chi-square vs the uniform distribution over the
// enumerated join result, alpha 1e-6, within one generation and across
// generation swaps), independence of consecutive queries, byte-identity
// of pooled output across thread counts and batch boundaries, a golden
// hash, a concurrent stress run, and boundary checks on the input.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/join/join_batch.h"
#include "iqs/join/join_enumerator.h"
#include "iqs/join/join_sampler.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "test_util.h"

namespace iqs::join {
namespace {

using multidim::Rect;

// Random rectangles in [0, extent)^2 with edge lengths up to max_side —
// wide enough that joins are dense on small inputs.
std::vector<Rect> RandomRects(size_t n, double extent, double max_side,
                              Rng* rng) {
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble() * extent;
    const double y = rng->NextDouble() * extent;
    const double w = rng->NextDouble() * max_side;
    const double h = rng->NextDouble() * max_side;
    rects.push_back(Rect{x, x + w, y, y + h});
  }
  return rects;
}

uint64_t NestedLoopJoin(const std::vector<Rect>& r, const std::vector<Rect>& s,
                        std::vector<JoinPair>* out) {
  out->clear();
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (r[i].Intersects(s[j])) out->push_back({i, j});
    }
  }
  return out->size();
}

TEST(JoinEnumerator, MatchesNestedLoop) {
  Rng rng(7001);
  for (int round = 0; round < 20; ++round) {
    const size_t nr = 1 + rng.Below(40);
    const size_t ns = 1 + rng.Below(40);
    const std::vector<Rect> r = RandomRects(nr, 100.0, 30.0, &rng);
    const std::vector<Rect> s = RandomRects(ns, 100.0, 30.0, &rng);
    std::vector<JoinPair> expected;
    NestedLoopJoin(r, s, &expected);
    std::vector<JoinPair> got;
    EXPECT_EQ(EnumerateJoinPairs(r, s, &got), expected.size());
    auto key = [](const JoinPair& p) {
      return (static_cast<uint64_t>(p.r_id) << 32) | p.s_id;
    };
    auto by_key = [&key](const JoinPair& a, const JoinPair& b) {
      return key(a) < key(b);
    };
    std::sort(expected.begin(), expected.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, expected);
  }
}

TEST(JoinEnumerator, TouchingEdgesJoin) {
  // Closed rectangles: sharing only an edge point still intersects.
  const std::vector<Rect> r = {Rect{0.0, 1.0, 0.0, 1.0}};
  const std::vector<Rect> s = {Rect{1.0, 2.0, 1.0, 2.0},   // corner touch
                               Rect{1.0, 2.0, 0.25, 0.5},  // x-edge touch
                               Rect{2.0, 3.0, 0.0, 1.0}};  // disjoint
  std::vector<JoinPair> pairs;
  EXPECT_EQ(EnumerateJoinPairs(r, s, &pairs), 2u);
}

TEST(JoinSampler, JoinSizeMatchesEnumeration) {
  Rng rng(7002);
  for (int round = 0; round < 10; ++round) {
    const size_t nr = 1 + rng.Below(120);
    const size_t ns = 1 + rng.Below(120);
    const std::vector<Rect> r = RandomRects(nr, 200.0, 40.0, &rng);
    const std::vector<Rect> s = RandomRects(ns, 200.0, 40.0, &rng);
    // Exercise several block bases, including degenerate binary.
    const size_t branching = 2 + rng.Below(15);
    const JoinSampler sampler(r, s, JoinSamplerOptions{branching});
    EXPECT_EQ(sampler.JoinSize(), EnumerateJoin(r, s, nullptr, nullptr))
        << "branching " << branching;
  }
}

TEST(JoinSampler, EmptyJoinResolvesNothing) {
  // x-disjoint relations: no pair joins.
  const std::vector<Rect> r = {Rect{0.0, 1.0, 0.0, 10.0},
                               Rect{2.0, 3.0, 0.0, 10.0}};
  const std::vector<Rect> s = {Rect{5.0, 6.0, 0.0, 10.0}};
  const JoinSampler sampler(r, s);
  EXPECT_EQ(sampler.JoinSize(), 0u);

  const std::vector<JoinBatchQuery> queries = {{8}, {0}, {3}};
  Rng rng(1);
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);
  ASSERT_EQ(result.num_queries(), 3u);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(result.resolved[q], 0u);
    EXPECT_TRUE(result.SamplesFor(q).empty());
  }
  EXPECT_TRUE(result.pairs.empty());
}

TEST(JoinSampler, EmptyRelation) {
  const std::vector<Rect> r;
  const std::vector<Rect> s = {Rect{0.0, 1.0, 0.0, 1.0}};
  const JoinSampler sampler(r, s);
  EXPECT_EQ(sampler.JoinSize(), 0u);
  const std::vector<JoinBatchQuery> queries = {{5}};
  Rng rng(1);
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);
  EXPECT_EQ(result.resolved[0], 0u);
}

TEST(JoinSampler, PairsAreValidAndBudgetsHonored) {
  Rng rng(7003);
  const std::vector<Rect> r = RandomRects(80, 100.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(90, 100.0, 25.0, &rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 0u);

  const std::vector<JoinBatchQuery> queries = {{17}, {0}, {256}, {1}};
  ScratchArena arena;
  JoinBatchResult result;
  TelemetrySink sink;
  BatchOptions opts;
  opts.telemetry = &sink;
  sampler.SampleJoinBatch(queries, &rng, &arena, opts, &result);
  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.samples_emitted, 17u + 256u + 1u);
  EXPECT_EQ(stats.rng_draws, 1u);  // the pool key
  EXPECT_EQ(sink.MergedLatency().count(), 1u);
  ASSERT_EQ(result.num_queries(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(result.resolved[q], 1u);
    const auto slice = result.SamplesFor(q);
    ASSERT_EQ(slice.size(), queries[q].s);
    for (const JoinPair& p : slice) {
      ASSERT_LT(p.r_id, r.size());
      ASSERT_LT(p.s_id, s.size());
      EXPECT_TRUE(r[p.r_id].Intersects(s[p.s_id]))
          << "sampled pair does not join";
    }
  }
}

// The law: every pair of J equally likely, across queries of one batch.
TEST(JoinSampler, UniformOverJoinResultChiSquare) {
  Rng rng(7004);
  const std::vector<Rect> r = RandomRects(24, 60.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(24, 60.0, 25.0, &rng);
  const JoinSampler sampler(r, s);

  std::vector<JoinPair> all_pairs;
  ASSERT_EQ(EnumerateJoinPairs(r, s, &all_pairs), sampler.JoinSize());
  ASSERT_GT(all_pairs.size(), 20u);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs.size(); ++i) {
    index_of[(static_cast<uint64_t>(all_pairs[i].r_id) << 32) |
             all_pairs[i].s_id] = i;
  }

  const size_t kDraws = 400 * all_pairs.size();
  const std::vector<JoinBatchQuery> queries = {{kDraws / 2},
                                               {kDraws - kDraws / 2}};
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);

  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : result.pairs) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end()) << "sampled pair not in the join result";
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// Same law through the parallel executor path.
TEST(JoinSampler, UniformOverJoinResultChiSquareParallel) {
  Rng rng(7005);
  const std::vector<Rect> r = RandomRects(20, 60.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(20, 60.0, 25.0, &rng);
  const JoinSampler sampler(r, s);

  std::vector<JoinPair> all_pairs;
  EnumerateJoinPairs(r, s, &all_pairs);
  ASSERT_GT(all_pairs.size(), 10u);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs.size(); ++i) {
    index_of[(static_cast<uint64_t>(all_pairs[i].r_id) << 32) |
             all_pairs[i].s_id] = i;
  }

  const std::vector<JoinBatchQuery> queries = {{300 * all_pairs.size()}};
  BatchOptions opts;
  opts.num_threads = 3;
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, opts, &result);

  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : result.pairs) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end());
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// The brute-force baseline obeys the same law (it is the E26 comparator,
// so its correctness matters too).
TEST(JoinEnumerator, BruteForceSampleUniformChiSquare) {
  Rng rng(7006);
  const std::vector<Rect> r = RandomRects(16, 50.0, 20.0, &rng);
  const std::vector<Rect> s = RandomRects(16, 50.0, 20.0, &rng);
  std::vector<JoinPair> all_pairs;
  EnumerateJoinPairs(r, s, &all_pairs);
  ASSERT_GT(all_pairs.size(), 10u);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs.size(); ++i) {
    index_of[(static_cast<uint64_t>(all_pairs[i].r_id) << 32) |
             all_pairs[i].s_id] = i;
  }
  std::vector<JoinPair> sample;
  BruteForceJoinSample(r, s, 300 * all_pairs.size(), &rng, &sample);
  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : sample) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end());
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// Fixed seed + fixed inputs => byte-identical output on a fresh sampler,
// for EVERY opts.num_threads (fills always run sequentially). A pooled
// sampler hands each pair out once, so every run builds its own sampler.
TEST(JoinSampler, ByteIdenticalAcrossThreadCounts) {
  Rng data_rng(7007);
  const std::vector<Rect> r = RandomRects(150, 150.0, 30.0, &data_rng);
  const std::vector<Rect> s = RandomRects(140, 150.0, 30.0, &data_rng);
  const std::vector<JoinBatchQuery> queries = {{64}, {1}, {0}, {1000}, {7}};

  JoinBatchResult reference;
  {
    const JoinSampler sampler(r, s);
    ASSERT_GT(sampler.JoinSize(), 0u);
    Rng rng(0xfeed);
    BatchOptions opts;
    opts.num_threads = 1;
    ScratchArena arena;
    sampler.SampleJoinBatch(queries, &rng, &arena, opts, &reference);
  }
  for (const size_t threads : {0u, 2u, 7u}) {
    const JoinSampler sampler(r, s);
    Rng rng(0xfeed);
    BatchOptions opts;
    opts.num_threads = threads;
    ScratchArena arena;
    JoinBatchResult result;
    sampler.SampleJoinBatch(queries, &rng, &arena, opts, &result);
    EXPECT_EQ(result.pairs, reference.pairs) << "threads " << threads;
    EXPECT_EQ(result.offsets, reference.offsets);
    EXPECT_EQ(result.resolved, reference.resolved);
  }
}

TEST(JoinSampler, SequentialModeDeterministic) {
  Rng data_rng(7008);
  const std::vector<Rect> r = RandomRects(60, 80.0, 25.0, &data_rng);
  const std::vector<Rect> s = RandomRects(60, 80.0, 25.0, &data_rng);
  const std::vector<JoinBatchQuery> queries = {{33}, {12}};

  JoinBatchResult a, b;
  for (JoinBatchResult* out : {&a, &b}) {
    const JoinSampler sampler(r, s);
    Rng rng(42);
    ScratchArena arena;
    sampler.SampleJoinBatch(queries, &rng, &arena, out);
  }
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.offsets, b.offsets);
}

// Index of every pair of J, for chi-square tallies.
std::map<uint64_t, size_t> IndexJoin(const std::vector<Rect>& r,
                                     const std::vector<Rect>& s,
                                     std::vector<JoinPair>* all_pairs) {
  EnumerateJoinPairs(r, s, all_pairs);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs->size(); ++i) {
    index_of[(static_cast<uint64_t>((*all_pairs)[i].r_id) << 32) |
             (*all_pairs)[i].s_id] = i;
  }
  return index_of;
}

// The law across pool generations: one batch that drains several
// generations (each a separate fill + shuffle) is still uniform over J.
TEST(JoinSampler, UniformAcrossGenerationSwapsChiSquare) {
  Rng rng(7010);
  const std::vector<Rect> r = RandomRects(30, 60.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(30, 60.0, 25.0, &rng);
  const JoinSampler sampler(r, s);
  std::vector<JoinPair> all_pairs;
  const std::map<uint64_t, size_t> index_of = IndexJoin(r, s, &all_pairs);
  ASSERT_EQ(all_pairs.size(), sampler.JoinSize());
  ASSERT_GT(all_pairs.size(), 20u);

  // Crossing a generation boundary inside a query is part of the test.
  const size_t draws = 400 * all_pairs.size();
  ASSERT_GT(draws, 3 * sampler.pool_size() + sampler.pool_size() / 2);
  const std::vector<JoinBatchQuery> queries = {
      {sampler.pool_size() / 2 + 1}, {draws - sampler.pool_size() / 2 - 1}};
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);

  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : result.pairs) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end()) << "sampled pair not in the join result";
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// Independence of consecutive queries: over disjoint (query 2i, query
// 2i+1) pairs of one-pair queries, the joint law of their draws is the
// product of two uniforms over J — across several generation swaps.
TEST(JoinSampler, ConsecutiveQueriesIndependentChiSquare) {
  // |J| = 12: every R rectangle meets every S rectangle.
  std::vector<Rect> r;
  std::vector<Rect> s;
  for (int i = 0; i < 3; ++i) r.push_back(Rect{0.0, 10.0, 1.0 * i, 20.0});
  for (int j = 0; j < 4; ++j) s.push_back(Rect{5.0, 15.0, 0.0, 3.0 + j});
  const JoinSampler sampler(r, s);
  std::vector<JoinPair> all_pairs;
  const std::map<uint64_t, size_t> index_of = IndexJoin(r, s, &all_pairs);
  ASSERT_EQ(all_pairs.size(), 12u);
  ASSERT_EQ(sampler.JoinSize(), 12u);

  const size_t cells = all_pairs.size() * all_pairs.size();
  const size_t num_pairs = 200 * cells;
  ASSERT_GT(2 * num_pairs, 3 * sampler.pool_size());
  const std::vector<JoinBatchQuery> queries(2 * num_pairs, JoinBatchQuery{1});
  Rng rng(7011);
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);

  const auto index = [&](size_t q) {
    const JoinPair p = result.SamplesFor(q)[0];
    return index_of.at((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
  };
  std::vector<uint64_t> counts(cells, 0);
  for (size_t i = 0; i < num_pairs; ++i) {
    ++counts[index(2 * i) * all_pairs.size() + index(2 * i + 1)];
  }
  const std::vector<double> probs(cells, 1.0 / static_cast<double>(cells));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// What a query receives depends only on the query sizes served before it,
// not on how queries were grouped into batches (nor on the threading
// options of each batch).
TEST(JoinSampler, BatchBoundaryInvariance) {
  Rng data_rng(7012);
  const std::vector<Rect> r = RandomRects(50, 80.0, 25.0, &data_rng);
  const std::vector<Rect> s = RandomRects(40, 80.0, 25.0, &data_rng);
  std::vector<JoinBatchQuery> queries;
  for (int i = 0; i < 60; ++i) {
    queries.push_back({static_cast<size_t>(data_rng.Below(90))});
  }

  JoinBatchResult one;
  {
    const JoinSampler sampler(r, s);
    Rng rng(99);
    ScratchArena arena;
    sampler.SampleJoinBatch(queries, &rng, &arena, &one);
  }
  ASSERT_GT(one.pairs.size(), 2 * JoinSampler::kMinPoolSize);
  for (const size_t k : {2u, 7u, 60u}) {
    const JoinSampler sampler(r, s);
    Rng rng(99);
    ScratchArena arena;
    JoinBatchResult part;
    std::vector<JoinPair> pairs;
    size_t q = 0;
    for (size_t b = 0; b < k; ++b) {
      const size_t end = queries.size() * (b + 1) / k;
      BatchOptions opts;
      opts.num_threads = b % 3;
      sampler.SampleJoinBatch(
          std::span<const JoinBatchQuery>(queries).subspan(q, end - q), &rng,
          &arena, opts, &part);
      for (size_t i = 0; i < part.num_queries(); ++i) {
        ASSERT_EQ(part.SamplesFor(i).size(), queries[q + i].s);
      }
      pairs.insert(pairs.end(), part.pairs.begin(), part.pairs.end());
      q = end;
    }
    EXPECT_EQ(pairs, one.pairs) << k << " batches";
  }
}

// Pins the pooled output bytes for a fixed input and seed: three batches
// through one sampler, crossing a generation boundary.
TEST(JoinSampler, GoldenHash) {
  Rng data_rng(7013);
  const std::vector<Rect> r = RandomRects(70, 100.0, 25.0, &data_rng);
  const std::vector<Rect> s = RandomRects(80, 100.0, 25.0, &data_rng);
  const JoinSampler sampler(r, s);
  ASSERT_EQ(sampler.pool_size(), JoinSampler::kMinPoolSize);
  iqs::testing::Fnv fnv;
  Rng rng(2024);
  ScratchArena arena;
  JoinBatchResult result;
  const std::vector<JoinBatchQuery> queries = {{300}, {0}, {77}, {512}};
  for (int rep = 0; rep < 3; ++rep) {
    sampler.SampleJoinBatch(queries, &rng, &arena, &result);
    for (const JoinPair& p : result.pairs) {
      fnv.U64((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    }
    for (const size_t off : result.offsets) fnv.U64(off);
  }
  EXPECT_EQ(fnv.h, 0xe6743b2ac0034f9dULL);
}

// Four threads hammer one small-pool sampler: every pair joins, every
// query gets its budget, and the totals add up across many generation
// swaps. The sampler is then destroyed with its filler mid-fill.
TEST(JoinSampler, ConcurrentBatchesStress) {
  Rng data_rng(7014);
  const std::vector<Rect> r = RandomRects(40, 80.0, 25.0, &data_rng);
  const std::vector<Rect> s = RandomRects(40, 80.0, 25.0, &data_rng);
  auto sampler = std::make_unique<JoinSampler>(r, s);
  ASSERT_GT(sampler->JoinSize(), 0u);

  constexpr size_t kThreads = 4;
  constexpr int kBatches = 300;
  std::vector<size_t> requested(kThreads, 0);
  std::vector<size_t> received(kThreads, 0);
  std::vector<size_t> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      ScratchArena arena;
      JoinBatchResult result;
      std::vector<JoinBatchQuery> queries;
      for (int b = 0; b < kBatches; ++b) {
        queries.assign(1 + rng.Below(6), JoinBatchQuery{});
        for (JoinBatchQuery& q : queries) {
          q.s = static_cast<size_t>(rng.Below(40));
          requested[t] += q.s;
        }
        BatchOptions opts;
        opts.num_threads = b % 2;
        sampler->SampleJoinBatch(queries, &rng, &arena, opts, &result);
        for (size_t i = 0; i < queries.size(); ++i) {
          if (result.SamplesFor(i).size() != queries[i].s) ++bad[t];
        }
        for (const JoinPair& p : result.pairs) {
          if (p.r_id >= r.size() || p.s_id >= s.size() ||
              !r[p.r_id].Intersects(s[p.s_id])) {
            ++bad[t];
          }
        }
        received[t] += result.pairs.size();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  size_t total = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[t], 0u) << "thread " << t;
    EXPECT_EQ(received[t], requested[t]) << "thread " << t;
    total += received[t];
  }
  EXPECT_GT(total, 10 * sampler->pool_size());

  // A larger input whose fills take a while: the first batch swaps in
  // generation 0, which starts generation 1 at once, and the destructor
  // must stop that fill mid-sweep and join the filler.
  const std::vector<Rect> big_r = RandomRects(4000, 1000.0, 30.0, &data_rng);
  const std::vector<Rect> big_s = RandomRects(4000, 1000.0, 30.0, &data_rng);
  sampler = std::make_unique<JoinSampler>(big_r, big_s);
  Rng rng(77);
  ScratchArena arena;
  JoinBatchResult result;
  const std::vector<JoinBatchQuery> one = {{8}};
  sampler->SampleJoinBatch(one, &rng, &arena, &result);
  EXPECT_EQ(result.pairs.size(), 8u);
  sampler.reset();
}

// Malformed rectangles abort at the join boundary, in every build mode.
TEST(JoinSamplerDeathTest, RejectsMalformedRects) {
  const std::vector<Rect> good = {Rect{0.0, 1.0, 0.0, 1.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Rect> bad = {
      Rect{1.0, 0.0, 0.0, 1.0},   // inverted x
      Rect{0.0, 1.0, 1.0, 0.0},   // inverted y
      Rect{nan, 1.0, 0.0, 1.0},   // NaN
      Rect{0.0, inf, 0.0, 1.0},   // infinite
      Rect{0.0, 1.0, -inf, 1.0},  // infinite
  };
  for (const Rect& rect : bad) {
    const std::vector<Rect> rel = {good[0], rect};
    EXPECT_DEATH(JoinSampler(rel, good), "Finite\\(rect\\)");
    EXPECT_DEATH(JoinSampler(good, rel), "Finite\\(rect\\)");
  }
}

TEST(JoinSampler, MemoryBytesAccounted) {
  Rng rng(7009);
  const std::vector<Rect> r = RandomRects(64, 100.0, 20.0, &rng);
  const std::vector<Rect> s = RandomRects(64, 100.0, 20.0, &rng);
  const JoinSampler sampler(r, s);
  // Two trees over 64 rects each, plus events and weights.
  EXPECT_GT(sampler.MemoryBytes(), 64u * 2 * sizeof(Rect));
}

}  // namespace
}  // namespace iqs::join
