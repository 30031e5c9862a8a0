// Tests for the deterministic parallel batch-serving mode
// (BatchOptions{num_threads}): the load-bearing property is THREAD-COUNT
// INVARIANCE — under a fixed seed the parallel mode must produce
// byte-identical output for every num_threads >= 1, because each query
// (or coalesced run) draws from its own RNG substream and writes a fixed
// slice of the flat output. On top of that, chi-square evidence (alpha
// 1e-6, per test_util.h) that the parallel mode draws from the same
// per-query law as the sequential path, and batch-independence checks
// (repeated parallel batches must not repeat samples).

#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/cover/coverage_engine.h"
#include "iqs/multidim/kd_sampler.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/quadtree.h"
#include "iqs/multidim/range_tree.h"
#include "iqs/multidim/range_tree_nd.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/naive_range_sampler.h"
#include "iqs/range/range_sampler.h"
#include "iqs/tree/subtree_sampler.h"
#include "iqs/tree/weighted_tree.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_pool.h"
#include "test_util.h"

namespace iqs {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 7};

struct Data {
  std::vector<double> keys;
  std::vector<double> weights;
};

Data MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  return {UniformKeys(n, &rng), ZipfWeights(n, 0.8, &rng)};
}

std::vector<PositionQuery> MakePositionQueries(size_t n, size_t count,
                                               size_t s, uint64_t seed) {
  Rng rng(seed);
  std::vector<PositionQuery> queries(count);
  for (PositionQuery& q : queries) {
    const size_t a = rng.Below(n);
    const size_t b = a + rng.Below(n - a);
    q = PositionQuery{a, b, s + rng.Below(s + 1)};
  }
  return queries;
}

// Runs the sampler's parallel QueryPositionsBatch at `num_threads` from a
// fresh fixed-seed rng and returns the flat output.
std::vector<size_t> RunParallel(const RangeSampler& sampler,
                                std::span<const PositionQuery> queries,
                                size_t num_threads) {
  Rng rng(4242);
  ScratchArena arena;
  BatchOptions opts;
  opts.num_threads = num_threads;
  std::vector<size_t> out;
  sampler.QueryPositionsBatch(queries, &rng, &arena, opts, &out);
  return out;
}

class ParallelInvariance : public ::testing::TestWithParam<int> {};

std::unique_ptr<RangeSampler> MakeSampler(int kind, const Data& data) {
  switch (kind) {
    case 0:
      return std::make_unique<BstRangeSampler>(data.keys, data.weights);
    case 1:
      return std::make_unique<AugRangeSampler>(data.keys, data.weights);
    case 2:
      return std::make_unique<ChunkedRangeSampler>(data.keys, data.weights);
    case 3:  // exercises the base-class generic parallel fallback
      return std::make_unique<NaiveRangeSampler>(data.keys, data.weights);
  }
  return nullptr;
}

TEST_P(ParallelInvariance, OutputIsBitIdenticalAcrossThreadCounts) {
  const Data data = MakeData(2000, 7);
  const auto sampler = MakeSampler(GetParam(), data);
  const auto queries = MakePositionQueries(2000, 60, 40, 11);

  const std::vector<size_t> reference = RunParallel(*sampler, queries, 1);
  size_t total = 0;
  for (const PositionQuery& q : queries) total += q.s;
  ASSERT_EQ(reference.size(), total);
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(RunParallel(*sampler, queries, num_threads), reference)
        << sampler->name() << " with " << num_threads << " threads";
  }
}

TEST_P(ParallelInvariance, ParallelModeDrawsTheRightLaw) {
  const size_t n = 300;
  const Data data = MakeData(n, 13);
  const auto sampler = MakeSampler(GetParam(), data);

  // Many identical queries over a fixed range pool their draws for one
  // chi-square against the range-restricted weights.
  const size_t a = 40;
  const size_t b = 260;
  std::vector<PositionQuery> queries(64, PositionQuery{a, b, 1000});
  Rng rng(99);
  ScratchArena arena;
  ThreadPool pool(4);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.pool = &pool;
  std::vector<size_t> out;
  sampler->QueryPositionsBatch(queries, &rng, &arena, opts, &out);
  ASSERT_EQ(out.size(), 64u * 1000u);
  for (size_t p : out) {
    ASSERT_GE(p, a);
    ASSERT_LE(p, b);
  }
  std::vector<double> restricted(n, 0.0);
  for (size_t i = a; i <= b; ++i) restricted[i] = data.weights[i];
  testing::ExpectSamplesMatchWeights(out, restricted);
}

TEST_P(ParallelInvariance, RepeatedBatchesAreIndependent) {
  // The parallel path must advance the caller's rng: serving the same
  // batch twice from one stream has to give different draws.
  const Data data = MakeData(500, 3);
  const auto sampler = MakeSampler(GetParam(), data);
  std::vector<PositionQuery> queries(4, PositionQuery{0, 499, 500});
  Rng rng(1);
  ScratchArena arena;
  BatchOptions opts;
  opts.num_threads = 2;
  std::vector<size_t> first;
  std::vector<size_t> second;
  sampler->QueryPositionsBatch(queries, &rng, &arena, opts, &first);
  sampler->QueryPositionsBatch(queries, &rng, &arena, opts, &second);
  EXPECT_NE(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, ParallelInvariance,
                         ::testing::Values(0, 1, 2, 3));

TEST(ParallelQueryBatchTest, ResultLayoutMatchesSequentialContract) {
  const Data data = MakeData(1000, 21);
  BstRangeSampler sampler(data.keys, data.weights);
  std::vector<BatchQuery> queries;
  Rng qrng(5);
  for (int i = 0; i < 30; ++i) {
    const double lo = data.keys[qrng.Below(500)];
    const double hi = data.keys[500 + qrng.Below(500)];
    queries.push_back({lo, hi, 64});
  }
  queries.push_back({2.0, 1.0, 8});  // unresolvable: lo > hi

  ScratchArena arena;
  BatchResult parallel_result;
  BatchOptions opts;
  opts.num_threads = 3;
  Rng rng(77);
  sampler.QueryBatch(queries, &rng, &arena, opts, &parallel_result);

  ASSERT_EQ(parallel_result.num_queries(), queries.size());
  EXPECT_EQ(parallel_result.resolved.back(), 0);
  EXPECT_TRUE(parallel_result.SamplesFor(queries.size() - 1).empty());
  for (size_t i = 0; i + 1 < queries.size(); ++i) {
    ASSERT_EQ(parallel_result.SamplesFor(i).size(), queries[i].s);
  }

  // Same seed, different thread count: identical bytes end to end.
  BatchResult other;
  BatchOptions opts7;
  opts7.num_threads = 7;
  Rng rng7(77);
  sampler.QueryBatch(queries, &rng7, &arena, opts7, &other);
  EXPECT_EQ(other.positions, parallel_result.positions);
  EXPECT_EQ(other.offsets, parallel_result.offsets);
}

TEST(ParallelRangeTree2DTest, BitIdenticalAcrossThreadCounts) {
  Rng data_rng(8);
  const size_t n = 1500;
  std::vector<multidim::Point2> points(n);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = {data_rng.NextDouble(), data_rng.NextDouble()};
    weights[i] = 0.1 + data_rng.NextDouble();
  }
  multidim::RangeTree2DSampler sampler(points, weights);

  std::vector<multidim::RectBatchQuery> queries;
  Rng qrng(31);
  for (int i = 0; i < 40; ++i) {
    const double x0 = qrng.NextDouble() * 0.8;
    const double y0 = qrng.NextDouble() * 0.8;
    queries.push_back(
        {multidim::Rect{x0, x0 + 0.2, y0, y0 + 0.2}, 32});
  }

  auto run = [&](size_t num_threads) {
    Rng rng(555);
    ScratchArena arena;
    multidim::PointBatchResult result;
    BatchOptions opts;
    opts.num_threads = num_threads;
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    std::vector<double> flat;
    for (const auto& p : result.points) {
      flat.push_back(p.x);
      flat.push_back(p.y);
    }
    return flat;
  };
  const auto reference = run(1);
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(run(num_threads), reference) << num_threads << " threads";
  }
}

TEST(ParallelRangeTreeNdTest, BitIdenticalAcrossThreadCounts) {
  Rng data_rng(17);
  const size_t n = 800;
  const size_t dim = 3;
  std::vector<double> coords(n * dim);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      coords[i * dim + d] = data_rng.NextDouble();
    }
    weights[i] = 0.1 + data_rng.NextDouble();
  }
  multidim::RangeTreeNdSampler sampler(dim, coords, weights);

  std::vector<multidim::BoxBatchQuery> queries;
  Rng qrng(43);
  for (int i = 0; i < 25; ++i) {
    multidim::BoxNd box(dim);
    for (size_t d = 0; d < dim; ++d) {
      const double lo = qrng.NextDouble() * 0.6;
      box.bounds[2 * d] = lo;
      box.bounds[2 * d + 1] = lo + 0.4;
    }
    queries.push_back({box, 24});
  }

  auto run = [&](size_t num_threads) {
    Rng rng(999);
    ScratchArena arena;
    BatchResult result;
    BatchOptions opts;
    opts.num_threads = num_threads;
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    return result.positions;
  };
  const auto reference = run(1);
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(run(num_threads), reference) << num_threads << " threads";
  }
}

// Golden bytes: fixed-seed output of both range trees, in the parallel
// mode on a persistent 4-worker pool and in the sequential mode, hashed
// with testing::Fnv. Every host and build serves these bytes. Any change
// to cover enumeration, run formation or substream assignment that moves
// a single output byte fails here.

constexpr size_t kGoldenWorkers = 4;
constexpr int kGoldenRounds = 3;

// Three batches from one stream: mixed rectangle sizes, a few tiny ones
// (boundary-leaf singletons), one outside the data and some s = 0.
uint64_t RangeTree2DGoldenHash(size_t num_threads) {
  Rng data_rng(2024);
  const size_t n = 4000;
  std::vector<multidim::Point2> points(n);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = {data_rng.NextDouble(), data_rng.NextDouble()};
    weights[i] = 0.1 + data_rng.NextDouble();
  }
  const multidim::RangeTree2DSampler sampler(points, weights);
  std::vector<multidim::RectBatchQuery> queries;
  for (int i = 0; i < 48; ++i) {
    const double side = i % 8 == 0 ? 0.01 : 0.02 + 0.3 * data_rng.NextDouble();
    const double x = data_rng.NextDouble() * (1.0 - side);
    const double y = data_rng.NextDouble() * (1.0 - side);
    queries.push_back({multidim::Rect{x, x + side, y, y + side},
                       i % 11 == 5 ? size_t{0} : 8 + data_rng.Below(40)});
  }
  queries.push_back({multidim::Rect{2.0, 3.0, 2.0, 3.0}, 16});

  ThreadPool pool(kGoldenWorkers);
  BatchOptions opts;
  opts.num_threads = num_threads;
  if (num_threads > 0) opts.pool = &pool;
  Rng rng(77);
  ScratchArena arena;
  multidim::PointBatchResult result;
  testing::Fnv fnv;
  for (int round = 0; round < kGoldenRounds; ++round) {
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    for (const multidim::Point2& p : result.points) {
      fnv.F64(p.x);
      fnv.F64(p.y);
    }
    for (size_t offset : result.offsets) fnv.U64(offset);
    for (uint8_t flag : result.resolved) fnv.U64(flag);
  }
  return fnv.h;
}

uint64_t RangeTreeNdGoldenHash(size_t num_threads) {
  Rng data_rng(2025);
  const size_t n = 1500;
  const size_t dim = 3;
  std::vector<double> coords(n * dim);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      coords[i * dim + d] = data_rng.NextDouble();
    }
    weights[i] = 0.1 + data_rng.NextDouble();
  }
  const multidim::RangeTreeNdSampler sampler(dim, coords, weights);
  std::vector<multidim::BoxBatchQuery> queries;
  for (int i = 0; i < 32; ++i) {
    multidim::BoxNd box(dim);
    for (size_t d = 0; d < dim; ++d) {
      const double side = i % 8 == 0 ? 0.05 : 0.2 + 0.5 * data_rng.NextDouble();
      const double lo = data_rng.NextDouble() * (1.0 - side);
      box.set(d, lo, lo + side);
    }
    queries.push_back({box, i % 11 == 5 ? size_t{0} : 8 + data_rng.Below(40)});
  }
  multidim::BoxNd outside(dim);
  for (size_t d = 0; d < dim; ++d) outside.set(d, 2.0, 3.0);
  queries.push_back({outside, 16});

  ThreadPool pool(kGoldenWorkers);
  BatchOptions opts;
  opts.num_threads = num_threads;
  if (num_threads > 0) opts.pool = &pool;
  Rng rng(78);
  ScratchArena arena;
  BatchResult result;
  testing::Fnv fnv;
  for (int round = 0; round < kGoldenRounds; ++round) {
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    for (size_t id : result.positions) fnv.U64(id);
    for (size_t offset : result.offsets) fnv.U64(offset);
    for (uint8_t flag : result.resolved) fnv.U64(flag);
  }
  return fnv.h;
}

// The 2-d constants were captured before cover enumeration moved onto the
// pool; the N-d ones once its runs were ordered by structure ordinal
// instead of address (the earlier N-d bytes depended on heap layout).
TEST(RangeTreeGoldenTest, RangeTree2DOutputBytesUnchanged) {
  EXPECT_EQ(RangeTree2DGoldenHash(kGoldenWorkers), 0x33618afa7c23be23ULL);
  EXPECT_EQ(RangeTree2DGoldenHash(0), 0x55e2d947e8a4dd2eULL);
}

TEST(RangeTreeGoldenTest, RangeTreeNdOutputBytesUnchanged) {
  EXPECT_EQ(RangeTreeNdGoldenHash(kGoldenWorkers), 0xa89b764987eb2834ULL);
  EXPECT_EQ(RangeTreeNdGoldenHash(0), 0xe56e8214a023ebcdULL);
}

TEST(ParallelKdQuadTest, BitIdenticalAcrossThreadCounts) {
  Rng data_rng(29);
  const size_t n = 1200;
  std::vector<multidim::Point2> points(n);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = {data_rng.NextDouble(), data_rng.NextDouble()};
    weights[i] = 0.5 + data_rng.NextDouble();
  }
  multidim::KdTreeSampler kd(points, weights);
  multidim::QuadtreeSampler quad(points, weights);

  std::vector<multidim::RectBatchQuery> queries;
  Rng qrng(61);
  for (int i = 0; i < 30; ++i) {
    const double x0 = qrng.NextDouble() * 0.7;
    const double y0 = qrng.NextDouble() * 0.7;
    queries.push_back({multidim::Rect{x0, x0 + 0.3, y0, y0 + 0.3}, 20});
  }

  auto run = [&](const auto& sampler, size_t num_threads) {
    Rng rng(123);
    ScratchArena arena;
    multidim::PointBatchResult result;
    BatchOptions opts;
    opts.num_threads = num_threads;
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    std::vector<double> flat;
    for (const auto& p : result.points) {
      flat.push_back(p.x);
      flat.push_back(p.y);
    }
    return flat;
  };
  const auto kd_ref = run(kd, 1);
  const auto quad_ref = run(quad, 1);
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(run(kd, num_threads), kd_ref) << "kd " << num_threads;
    EXPECT_EQ(run(quad, num_threads), quad_ref) << "quad " << num_threads;
  }
}

TEST(ParallelSubtreeTest, BitIdenticalAcrossThreadCounts) {
  // Random tree with ~200 nodes (root is id 0, created by the ctor).
  WeightedTree tree;
  Rng tree_rng(3);
  std::vector<WeightedTree::NodeId> nodes;
  nodes.push_back(tree.root());
  for (int i = 0; i < 200; ++i) {
    const WeightedTree::NodeId parent = nodes[tree_rng.Below(nodes.size())];
    nodes.push_back(tree.AddChild(parent));
  }
  for (const WeightedTree::NodeId u : nodes) {
    if (tree.IsLeaf(u)) tree.SetLeafWeight(u, 0.1 + tree_rng.NextDouble());
  }
  tree.Finalize();
  SubtreeSampler sampler(&tree);

  std::vector<SubtreeBatchQuery> queries;
  Rng qrng(9);
  for (int i = 0; i < 50; ++i) {
    queries.push_back({nodes[qrng.Below(nodes.size())], 16});
  }

  auto run = [&](size_t num_threads) {
    Rng rng(31337);
    ScratchArena arena;
    BatchResult result;
    BatchOptions opts;
    opts.num_threads = num_threads;
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    return result.positions;
  };
  const auto reference = run(1);
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(run(num_threads), reference) << num_threads << " threads";
  }
}

TEST(ParallelRejectionTest, BitIdenticalAcrossThreadCountsAndCorrect) {
  // Weighted positions with an acceptance predicate that drops evens.
  const size_t n = 4000;
  Rng data_rng(71);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.2 + data_rng.NextDouble();
  CoverageEngine engine(weights);

  const std::vector<CoverRange> cover = {{100, 1999, 0.0}, {2500, 3899, 0.0}};
  std::vector<CoverRange> weighted_cover;
  for (CoverRange range : cover) {
    range.weight = 0.0;
    for (size_t i = range.lo; i <= range.hi; ++i) range.weight += weights[i];
    weighted_cover.push_back(range);
  }
  const auto accepts = [](size_t p) { return (p % 2) == 1; };

  auto run = [&](size_t num_threads) {
    Rng rng(246);
    ScratchArena arena;
    BatchOptions opts;
    opts.num_threads = num_threads;
    std::vector<size_t> out;
    engine.SampleWithRejection(weighted_cover, 3000, accepts, &rng, &arena,
                               opts, &out);
    return out;
  };
  const auto reference = run(1);
  ASSERT_EQ(reference.size(), 3000u);
  for (size_t p : reference) {
    EXPECT_TRUE(accepts(p));
    EXPECT_TRUE((p >= 100 && p <= 1999) || (p >= 2500 && p <= 3899));
  }
  for (size_t num_threads : kThreadCounts) {
    EXPECT_EQ(run(num_threads), reference) << num_threads << " threads";
  }

  // Law check: accepted draws follow the weights restricted to accepted
  // positions inside the cover.
  std::vector<double> restricted(n, 0.0);
  for (const CoverRange& range : cover) {
    for (size_t i = range.lo; i <= range.hi; ++i) {
      if (accepts(i)) restricted[i] = weights[i];
    }
  }
  std::vector<size_t> pooled;
  Rng rng(777);
  ScratchArena arena;
  BatchOptions opts;
  opts.num_threads = 4;
  for (int round = 0; round < 20; ++round) {
    engine.SampleWithRejection(weighted_cover, 3000, accepts, &rng, &arena,
                               opts, &pooled);
  }
  testing::ExpectSamplesMatchWeights(pooled, restricted);
}

TEST(ParallelTelemetryTest, SinkDoesNotPerturbOutputAcrossThreadCounts) {
  // Attaching a TelemetrySink must never touch the RNG stream: with a
  // sink attached the output stays byte-identical to the sink-free run,
  // for every thread count.
  const Data data = MakeData(1500, 19);
  ChunkedRangeSampler sampler(data.keys, data.weights);
  const auto queries = MakePositionQueries(1500, 50, 48, 23);

  auto run = [&](size_t num_threads, TelemetrySink* sink) {
    Rng rng(2024);
    ScratchArena arena;
    BatchOptions opts;
    opts.num_threads = num_threads;
    opts.telemetry = sink;
    std::vector<size_t> out;
    sampler.QueryPositionsBatch(queries, &rng, &arena, opts, &out);
    return out;
  };
  const std::vector<size_t> reference = run(1, nullptr);
  for (size_t num_threads : kThreadCounts) {
    TelemetrySink sink;
    EXPECT_EQ(run(num_threads, &sink), reference)
        << num_threads << " threads with sink";
    EXPECT_EQ(run(num_threads, nullptr), reference)
        << num_threads << " threads without sink";
    const QueryStats stats = sink.MergedStats();
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_GT(stats.samples_emitted, 0u);
  }
}

TEST(ParallelTelemetryTest, MergedCountersInvariantAcrossThreadCounts) {
  // Counters that describe the WORK (queries, groups, draws, samples) are
  // scheduling-independent, so their merged totals must agree across
  // thread counts even though per-shard attribution differs.
  const Data data = MakeData(1200, 37);
  BstRangeSampler sampler(data.keys, data.weights);
  const auto queries = MakePositionQueries(1200, 40, 32, 41);

  auto merged = [&](size_t num_threads) {
    TelemetrySink sink;
    Rng rng(606);
    ScratchArena arena;
    BatchOptions opts;
    opts.num_threads = num_threads;
    opts.telemetry = &sink;
    std::vector<size_t> out;
    sampler.QueryPositionsBatch(queries, &rng, &arena, opts, &out);
    return sink.MergedStats();
  };
  const QueryStats reference = merged(1);
  EXPECT_EQ(reference.queries, queries.size());
  for (size_t num_threads : kThreadCounts) {
    const QueryStats stats = merged(num_threads);
    EXPECT_EQ(stats.queries, reference.queries) << num_threads;
    EXPECT_EQ(stats.cover_groups, reference.cover_groups) << num_threads;
    EXPECT_EQ(stats.rng_draws, reference.rng_draws) << num_threads;
    EXPECT_EQ(stats.samples_emitted, reference.samples_emitted)
        << num_threads;
    EXPECT_EQ(stats.nodes_visited, reference.nodes_visited) << num_threads;
  }
}

TEST(ParallelPoolReuseTest, PersistentPoolMatchesTransientPools) {
  const Data data = MakeData(1000, 55);
  ChunkedRangeSampler sampler(data.keys, data.weights);
  const auto queries = MakePositionQueries(1000, 40, 64, 5);

  ThreadPool pool(3);
  BatchOptions with_pool;
  with_pool.num_threads = 3;
  with_pool.pool = &pool;
  Rng rng_a(4242);  // same seed as RunParallel: pool choice must not matter
  ScratchArena arena_a;
  std::vector<size_t> out_a;
  sampler.QueryPositionsBatch(queries, &rng_a, &arena_a, with_pool, &out_a);

  EXPECT_EQ(out_a, RunParallel(sampler, queries, 3));
  // Same persistent pool serves a second batch cleanly.
  std::vector<size_t> out_b;
  sampler.QueryPositionsBatch(queries, &rng_a, &arena_a, with_pool, &out_b);
  EXPECT_NE(out_a, out_b);
}

}  // namespace
}  // namespace iqs
