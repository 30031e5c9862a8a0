#include "iqs/util/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/batch_options.h"
#include "new_counter.h"

namespace iqs {
namespace {

TEST(ThreadPoolTest, RunsEveryShardExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kShards = 1000;
  std::vector<std::atomic<int>> hits(kShards);
  pool.ParallelFor(kShards, [&](size_t shard, size_t worker) {
    ASSERT_LT(shard, kShards);
    ASSERT_LT(worker, pool.num_threads());
    hits[shard].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  size_t sum = 0;  // no synchronization: everything must run on the caller
  pool.ParallelFor(100, [&](size_t shard, size_t worker) {
    EXPECT_EQ(worker, 0u);
    sum += shard;
  });
  EXPECT_EQ(sum, 99u * 100u / 2);
}

TEST(ThreadPoolTest, ZeroShardsIsANoOp) {
  ThreadPool pool(3);
  pool.ParallelFor(0, [&](size_t, size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, FewerShardsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](size_t shard, size_t) {
    hits[shard].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    const size_t shards = 1 + static_cast<size_t>(round % 17);
    pool.ParallelFor(shards, [&](size_t shard, size_t) {
      sum.fetch_add(shard + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), shards * (shards + 1) / 2);
  }
}

TEST(ThreadPoolTest, UnevenShardsAllComplete) {
  // One huge shard plus many tiny ones: stealing must still run them all.
  ThreadPool pool(4);
  constexpr size_t kShards = 64;
  std::vector<std::atomic<uint64_t>> work(kShards);
  pool.ParallelFor(kShards, [&](size_t shard, size_t) {
    const size_t iters = shard == 0 ? 2000000 : 100;
    uint64_t acc = 0;
    for (size_t i = 0; i < iters; ++i) acc += i * 2654435761u;
    work[shard].store(acc + 1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kShards; ++i) EXPECT_NE(work[i].load(), 0u);
}

TEST(ThreadPoolTest, ParallelForMakesNoHeapAllocations) {
  // The header's promise: after the pool exists, ParallelFor itself never
  // allocates — not per call, not per shard count, not when stealing.
  ThreadPool pool(4);
  std::atomic<size_t> sum{0};
  auto body = [&](size_t shard, size_t) {
    sum.fetch_add(shard, std::memory_order_relaxed);
  };
  pool.ParallelFor(16, body);  // warm-up
  const uint64_t before = testing::NewCalls();
  size_t expected = sum.load();
  for (size_t round = 0; round < 200; ++round) {
    const size_t shards = 1 + round % 40;
    pool.ParallelFor(shards, body);
    expected += shards * (shards - 1) / 2;
  }
  EXPECT_EQ(testing::NewCalls(), before);
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, WorkerArenasAreDistinctAndPersistent) {
  ThreadPool pool(3);
  std::vector<ScratchArena*> arenas;
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    arenas.push_back(pool.worker_arena(w));
    EXPECT_NE(arenas.back(), nullptr);
    for (size_t prev = 0; prev < w; ++prev) {
      EXPECT_NE(arenas[prev], arenas[w]);
    }
  }
  // Same objects on the next lookup (persistent across jobs).
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    EXPECT_EQ(pool.worker_arena(w), arenas[w]);
  }
}

TEST(ScopedPoolTest, UsesCallerPoolWhenProvided) {
  ThreadPool pool(2);
  BatchOptions opts;
  opts.num_threads = 5;  // pool wins over the count
  opts.pool = &pool;
  ScopedPool scoped(opts);
  EXPECT_EQ(scoped.get(), &pool);
  EXPECT_EQ(scoped->num_threads(), 2u);
}

TEST(ScopedPoolTest, OwnsTransientPoolOtherwise) {
  BatchOptions opts;
  opts.num_threads = 3;
  ScopedPool scoped(opts);
  ASSERT_NE(scoped.get(), nullptr);
  EXPECT_EQ(scoped->num_threads(), 3u);
}

TEST(ParallelForShardsTest, CoversIndexRangeExactly) {
  ThreadPool pool(4);
  constexpr size_t kN = 1237;  // not a multiple of anything convenient
  std::vector<std::atomic<int>> hits(kN);
  ParallelForShards(&pool, kN, [&](size_t first, size_t last, size_t worker) {
    ASSERT_LE(first, last);
    ASSERT_LE(last, kN);
    ASSERT_LT(worker, pool.num_threads());
    for (size_t i = first; i < last; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForShardsTest, SmallNDegeneratesToOneShardEach) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2);
  ParallelForShards(&pool, 2, [&](size_t first, size_t last, size_t) {
    for (size_t i = first; i < last; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

}  // namespace
}  // namespace iqs
