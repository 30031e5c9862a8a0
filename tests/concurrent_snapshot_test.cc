// Concurrency tests for the epoch-versioned samplers (util/epoch.h):
// structural stress (run under TSan in CI — sanitizers.yml),
// chi-square-under-churn law checks at alpha 1e-6, single-threaded
// byte-identity goldens, and the bounded-reclamation guarantee.
//
// Churn workload design: every law check samples a query range the churn
// NEVER touches (inserts land outside the queried interval; alias churn
// uses same-weight SetWeight plus negligible-weight transients that the
// tally excludes), so the sampled law stays exactly fixed while versions
// publish underneath — making chi-square at alpha 1e-6 a valid oracle
// even though thread interleaving is nondeterministic.

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/alias/dynamic_alias.h"
#include "iqs/cover/coverage_engine.h"
#include "iqs/range/logarithmic_range_sampler.h"
#include "iqs/util/rng.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_pool.h"
#include "test_util.h"

namespace iqs {
namespace {

// Golden hashes use testing::Fnv (test_util.h); the constants below were
// captured from the pre-epoch build.
using testing::Fnv;

// The level-order QueryBatch stream of the golden sampler below, as the
// one scalar kernel backend serves it.
constexpr uint64_t kLogarithmicGoldenBatchHash = 0x729473128b8de019ULL;

void InsertGoldenKeys(LogarithmicRangeSampler* sampler) {
  Rng ins(42);
  for (int i = 0; i < 700; ++i) {
    sampler->Insert(ins.NextDouble(), 0.5 + ins.NextDouble());
  }
}

// Hashes five 64-query batches (keys, offsets and resolved flags).
uint64_t GoldenBatchHash(const LogarithmicRangeSampler& sampler,
                         const BatchOptions& opts) {
  Fnv fnv;
  ScratchArena arena;
  KeyBatchResult result;
  Rng brng(11);
  std::vector<KeyBatchQuery> queries;
  for (int i = 0; i < 64; ++i) {
    const double lo = brng.NextDouble() * 0.8;
    const double hi = lo + brng.NextDouble() * 0.2;
    queries.push_back({lo, hi, static_cast<size_t>(brng.Below(50))});
  }
  for (int rep = 0; rep < 5; ++rep) {
    sampler.QueryBatch(queries, &brng, &arena, opts, &result);
    for (double key : result.keys) fnv.F64(key);
    for (size_t offset : result.offsets) fnv.U64(offset);
    for (uint8_t flag : result.resolved) fnv.U64(flag);
  }
  return fnv.h;
}

TEST(ConcurrentSnapshotTest, LogarithmicGoldenBytesUnchangedSingleThreaded) {
  // The acceptance pin: with no concurrent writer, the refactored sampler
  // must produce byte-for-byte the pre-refactor sample stream. The
  // log_query/log_meta hashes below were captured from the build at the
  // commit BEFORE the epoch layer landed; log_batch pins the (new,
  // deterministic level-order) batched stream so future changes can't
  // silently reshuffle it.
  LogarithmicRangeSampler sampler;
  InsertGoldenKeys(&sampler);
  Fnv fnv;
  Rng qrng(7);
  std::vector<double> out;
  for (int q = 0; q < 50; ++q) {
    const double lo = qrng.NextDouble() * 0.8;
    const double hi = lo + qrng.NextDouble() * 0.2;
    out.clear();
    const bool ok = sampler.Query(lo, hi, 40, &qrng, &out);
    fnv.U64(ok ? 1 : 0);
    for (double key : out) fnv.F64(key);
  }
  EXPECT_EQ(fnv.h, 0x67da53a8d6c0b201ULL);  // pre-epoch Query stream
  fnv.F64(sampler.RangeWeight(0.1, 0.9));
  fnv.U64(sampler.num_components());
  EXPECT_EQ(fnv.h, 0xa5887ea450dedc20ULL);  // pre-epoch weights/meta

  EXPECT_EQ(GoldenBatchHash(sampler, BatchOptions{}),
            kLogarithmicGoldenBatchHash);
}

TEST(ConcurrentSnapshotTest, LogarithmicBatchStaysSequentialInParallelMode) {
  // The logarithmic sampler serves every batch sequentially: parallel
  // options must neither fork substreams nor draw a batch key, so the
  // stream is the sequential golden byte for byte.
  LogarithmicRangeSampler sampler;
  InsertGoldenKeys(&sampler);
  ThreadPool pool(4);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.pool = &pool;
  EXPECT_EQ(GoldenBatchHash(sampler, opts), kLogarithmicGoldenBatchHash);
}

TEST(ConcurrentSnapshotTest, AliasGoldenBytesUnchangedSingleThreaded) {
  // Captured from the pre-epoch build: handles, sample stream, and
  // total_weight through a mixed op sequence — the left-right rehost must
  // replay to bit-identical state.
  DynamicAlias alias;
  Fnv fnv;
  Rng wrng(99);
  std::vector<size_t> handles;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(alias.Insert(0.25 + wrng.NextDouble()));
  }
  Rng srng(5);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 2000; ++i) fnv.U64(alias.Sample(&srng));
    for (int i = 0; i < 40; ++i) {
      const size_t victim = srng.Below(handles.size());
      alias.Remove(handles[victim]);
      handles[victim] = alias.Insert(0.25 + wrng.NextDouble());
      fnv.U64(handles[victim]);
    }
    for (int i = 0; i < 40; ++i) {
      alias.SetWeight(handles[srng.Below(handles.size())],
                      0.25 + wrng.NextDouble());
    }
    fnv.F64(alias.total_weight());
  }
  EXPECT_EQ(fnv.h, 0x60092d8a06e13f5cULL);  // pre-epoch mixed-op stream
}

TEST(ConcurrentSnapshotTest, LogarithmicStressInsertersVsBatchReaders) {
  // TSan structural target: 2 inserter threads publishing versions
  // (disjoint key ranges, so distinct-key checks can't fire) against 2
  // QueryBatch reader threads pinning snapshots. Readers assert snapshot
  // consistency: resolved flags, exact per-query sample counts, and every
  // sampled key inside the queried interval.
  LogarithmicRangeSampler sampler;
  ThreadPool pool(2);
  sampler.set_maintenance_pool(&pool);
  Rng seed_rng(17);
  for (int i = 0; i < 200; ++i) {
    sampler.Insert(seed_rng.NextDouble(), 0.5 + seed_rng.NextDouble());
  }

  constexpr int kInsertsPerWriter = 300;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_served{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&sampler, &batches_served, w] {
      // Wait for the readers' first batch before churning: on a one-core
      // box the scheduler can otherwise run both writers to completion
      // before a reader ever starts, and the test would measure nothing.
      while (batches_served.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
      }
      // Writer w inserts into [2 + w, 3 + w) — outside every queried
      // interval and disjoint from the other writer.
      Rng rng(1000 + w);
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        sampler.Insert(2.0 + w + rng.NextDouble(), 0.5 + rng.NextDouble());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&sampler, &stop, &batches_served, r] {
      Rng rng(2000 + r);
      ScratchArena arena;
      KeyBatchResult result;
      std::vector<KeyBatchQuery> queries;
      for (int i = 0; i < 16; ++i) {
        const double lo = rng.NextDouble() * 0.5;
        queries.push_back({lo, lo + 0.4, 8});
      }
      do {  // at least one batch even if the writers already finished
        sampler.QueryBatch(queries, &rng, &arena, &result);
        ASSERT_EQ(result.num_queries(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          ASSERT_EQ(result.resolved[i], 1);
          const auto samples = result.SamplesFor(i);
          ASSERT_EQ(samples.size(), queries[i].s);
          for (double key : samples) {
            ASSERT_GE(key, queries[i].lo);
            ASSERT_LE(key, queries[i].hi);
          }
        }
        batches_served.fetch_add(1, std::memory_order_release);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_GT(batches_served.load(), 0u);
  EXPECT_EQ(sampler.size(), 200u + 2 * kInsertsPerWriter);
  EXPECT_EQ(sampler.versions_published(), 200u + 2 * kInsertsPerWriter);
  // All retired versions/components come back once writers are done.
  sampler.epoch_manager()->Drain();
  EXPECT_EQ(sampler.epoch_manager()->retired_pending(), 0u);
}

TEST(ConcurrentSnapshotTest, LogarithmicChiSquareUnderChurn) {
  // Law check under concurrent publication: the reader samples
  // [-1, 1.5] — covering exactly the 64 prepopulated keys — while a
  // churn thread inserts keys in [2, 3). Every pinned version yields the
  // SAME law over the queried interval, so the pooled tally must pass
  // chi-square at alpha 1e-6.
  LogarithmicRangeSampler sampler;
  Rng setup_rng(31);
  const size_t n = 64;
  std::vector<double> keys;
  std::vector<double> weights;
  std::map<double, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back((static_cast<double>(i) + setup_rng.NextDouble()) /
                   static_cast<double>(n));
    weights.push_back(0.5 + 2.0 * setup_rng.NextDouble());
    index[keys.back()] = i;
    sampler.Insert(keys.back(), weights.back());
  }

  std::atomic<bool> stop{false};
  std::thread churn([&sampler, &stop] {
    // Capped so the single-core CI box isn't starved by merge rebuilds;
    // 20000 inserts publish versions throughout the reader's whole run.
    double next = 2.0;
    for (int i = 0; i < 20000 && !stop.load(std::memory_order_acquire); ++i) {
      sampler.Insert(next, 1.0);
      next += 1e-6;  // distinct, always inside [2, 3)
    }
  });

  Rng rng(33);
  ScratchArena arena;
  KeyBatchResult result;
  const std::vector<KeyBatchQuery> queries(16, KeyBatchQuery{-1.0, 1.5, 64});
  std::vector<uint64_t> counts(n, 0);
  uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    sampler.QueryBatch(queries, &rng, &arena, &result);
    for (double key : result.keys) {
      const auto it = index.find(key);
      ASSERT_NE(it, index.end()) << "sampled key outside the fixed law";
      ++counts[it->second];
      ++total;
    }
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  ASSERT_EQ(total, 200u * 16u * 64u);
  testing::ExpectDistributionClose(counts, testing::Normalize(weights));
}

TEST(ConcurrentSnapshotTest, AliasStressWritersVsSampleBatchReaders) {
  // TSan structural target: 2 mutating threads (insert/remove churn and
  // same-weight SetWeight churn) against 2 SampleBatch reader threads.
  DynamicAlias alias;
  Rng setup_rng(41);
  std::vector<size_t> base;
  std::vector<double> base_weights;
  for (int i = 0; i < 64; ++i) {
    base_weights.push_back(0.5 + setup_rng.NextDouble());
    base.push_back(alias.Insert(base_weights.back()));
  }
  const size_t base_count = base.size();

  constexpr int kOpsPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> samples_drawn{0};
  // As in the logarithmic stress test: writers hold until the readers'
  // first batch lands, so the threads genuinely overlap on a one-core
  // box instead of the writers racing to completion unobserved.
  const auto await_readers = [&samples_drawn] {
    while (samples_drawn.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&alias, base_count, &await_readers] {
    await_readers();
    // Insert/remove transients; never touches base handles.
    Rng rng(42);
    std::vector<size_t> transients;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      if (transients.empty() || rng.Below(2) == 0) {
        transients.push_back(alias.Insert(0.25 + rng.NextDouble()));
        ASSERT_GE(transients.back(), base_count);
      } else {
        const size_t victim = rng.Below(transients.size());
        alias.Remove(transients[victim]);
        transients[victim] = transients.back();
        transients.pop_back();
      }
    }
  });
  threads.emplace_back([&alias, &base, &base_weights, &await_readers] {
    await_readers();
    // Same-weight SetWeight churn: full detach/attach structural motion,
    // zero law movement.
    Rng rng(43);
    for (int i = 0; i < kOpsPerWriter; ++i) {
      const size_t pick = rng.Below(base.size());
      alias.SetWeight(base[pick], base_weights[pick]);
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&alias, &stop, &samples_drawn, r] {
      Rng rng(4000 + r);
      std::vector<size_t> out;
      do {  // at least one batch even if the writers already finished
        out.clear();
        alias.SampleBatch(256, &rng, &out);
        ASSERT_EQ(out.size(), 256u);
        for (size_t handle : out) {
          // Handles are dense: never beyond base + live transients.
          ASSERT_LT(handle, 4096u);
        }
        samples_drawn.fetch_add(out.size(), std::memory_order_release);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_GT(samples_drawn.load(), 0u);
  EXPECT_EQ(alias.versions_published(), 2u * kOpsPerWriter + 64u);
  alias.epoch_manager()->Drain();
  EXPECT_EQ(alias.epoch_manager()->retired_pending(), 0u);
  // The base law survived the churn verbatim.
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(alias.weight(base[i]), base_weights[i]);
  }
}

TEST(ConcurrentSnapshotTest, AliasChiSquareUnderChurn) {
  // Law check under churn: base elements keep fixed weights; the churn
  // thread mixes same-weight SetWeight (structural motion, identical law)
  // with insert/remove of negligible-weight transients. Conditioned on
  // drawing a BASE handle, the law is exactly Normalize(base_weights)
  // regardless of transients, so the tally excludes transient draws
  // (expected count ~ 1e-4 over the whole run) and chi-squares the rest.
  DynamicAlias alias;
  Rng setup_rng(51);
  const size_t n = 48;
  std::vector<size_t> base;
  std::vector<double> base_weights;
  for (size_t i = 0; i < n; ++i) {
    base_weights.push_back(0.5 + 2.0 * setup_rng.NextDouble());
    base.push_back(alias.Insert(base_weights.back()));
  }

  std::atomic<bool> stop{false};
  std::thread churn([&alias, &base, &base_weights, &stop] {
    Rng rng(52);
    std::vector<size_t> transients;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t action = rng.Below(3);
      if (action == 0 && !transients.empty()) {
        const size_t victim = rng.Below(transients.size());
        alias.Remove(transients[victim]);
        transients[victim] = transients.back();
        transients.pop_back();
      } else if (action == 1 && transients.size() < 32) {
        transients.push_back(alias.Insert(1e-9));
      } else {
        const size_t pick = rng.Below(base.size());
        alias.SetWeight(base[pick], base_weights[pick]);
      }
    }
  });

  Rng rng(53);
  std::vector<size_t> out;
  std::vector<uint64_t> counts(n, 0);
  uint64_t transient_draws = 0;
  for (int round = 0; round < 800; ++round) {
    out.clear();
    alias.SampleBatch(256, &rng, &out);
    for (size_t handle : out) {
      if (handle < n) {
        ++counts[handle];
      } else {
        ++transient_draws;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  // Total transient weight is <= 32e-9 against ~48 units of base weight:
  // seeing even a handful of transient draws would mean the law broke.
  EXPECT_LT(transient_draws, 5u);
  testing::ExpectDistributionClose(counts, testing::Normalize(base_weights));
}

TEST(ConcurrentSnapshotTest, VersionedCoverageEngineServesAcrossRebuilds) {
  // The cover layer's snapshot discipline: batches pinned on one engine
  // stay valid and law-correct while Rebuild() publishes replacements.
  const size_t n = 32;
  std::vector<double> position_weights;
  Rng setup_rng(61);
  for (size_t i = 0; i < n; ++i) {
    position_weights.push_back(0.5 + setup_rng.NextDouble());
  }
  ThreadPool pool(2);
  VersionedCoverageEngine engine(position_weights);
  engine.set_maintenance_pool(&pool);

  std::atomic<bool> stop{false};
  std::thread rebuilder([&engine, &position_weights, &stop] {
    // Same weights every time: versions churn, the law doesn't. do-while
    // so at least one Rebuild happens even if this thread is scheduled
    // only after the reader already finished (one-core box).
    do {
      engine.Rebuild(position_weights);
      std::this_thread::yield();
    } while (!stop.load(std::memory_order_acquire));
  });

  Rng rng(62);
  ScratchArena arena;
  CoverPlan plan;
  for (int q = 0; q < 8; ++q) {
    plan.BeginQuery(64);
    plan.AddGroup(0, n / 2 - 1, 1.0);
    plan.AddGroup(n / 2, n - 1, 1.0);
  }
  std::vector<size_t> out;
  std::vector<uint64_t> counts(n, 0);
  for (int round = 0; round < 400; ++round) {
    out.clear();
    arena.Reset();
    engine.SampleBatch(plan, &rng, &arena, &out);
    ASSERT_EQ(out.size(), 8u * 64u);
    for (size_t position : out) {
      ASSERT_LT(position, n);
      ++counts[position];
    }
  }
  stop.store(true, std::memory_order_release);
  rebuilder.join();
  EXPECT_GT(engine.versions_published(), 0u);
  // Both halves get equal budget; within a half, proportional to weight.
  std::vector<double> expected(n);
  double left = 0.0;
  double right = 0.0;
  for (size_t i = 0; i < n / 2; ++i) left += position_weights[i];
  for (size_t i = n / 2; i < n; ++i) right += position_weights[i];
  for (size_t i = 0; i < n; ++i) {
    expected[i] = position_weights[i] / (i < n / 2 ? left : right);
  }
  testing::ExpectDistributionClose(counts, testing::Normalize(expected));
}

TEST(ConcurrentSnapshotTest, EpochTelemetryReachesRegistrySink) {
  MetricsRegistry registry;
  TelemetrySink* sink = registry.GetOrCreate("log_sampler");
  LogarithmicRangeSampler sampler;
  sampler.set_telemetry(sink);
  Rng rng(71);
  for (int i = 0; i < 300; ++i) {
    sampler.Insert(rng.NextDouble(), 1.0);
  }
  const QueryStats stats = sink->MergedStats();
  EXPECT_EQ(stats.versions_published, 300u);
  EXPECT_GT(stats.versions_reclaimed, 0u);
  EXPECT_GT(stats.rebuild_ns, 0u);
  // Readers pin snapshots; the writer path exports the running total.
  std::vector<double> out;
  ASSERT_TRUE(sampler.Query(0.0, 1.0, 10, &rng, &out));
  sampler.Insert(2.0, 1.0);
  EXPECT_GT(sink->MergedStats().reader_pins, 0u);
  // The registry exporters carry the new counters.
  EXPECT_NE(registry.ToJson().find("\"versions_published\""), std::string::npos);
  EXPECT_NE(registry.ToText().find("published="), std::string::npos);

  TelemetrySink* alias_sink = registry.GetOrCreate("alias");
  DynamicAlias alias;
  alias.set_telemetry(alias_sink);
  const size_t handle = alias.Insert(1.0);
  alias.SetWeight(handle, 2.0);
  alias.Remove(handle);
  EXPECT_EQ(alias_sink->MergedStats().versions_published, 3u);
}

TEST(ConcurrentSnapshotTest, BoundedLimboAcrossThousandPublishCycles) {
  // Acceptance bound: >= 1000 publish cycles (inserts) with transient
  // readers leave retired_pending bounded — versions come back instead of
  // accumulating. MemoryBytes of the final structure stays in the same
  // ballpark as a freshly built copy (no hidden retained versions).
  LogarithmicRangeSampler sampler;
  Rng rng(81);
  size_t max_pending = 0;
  std::vector<double> out;
  for (int i = 0; i < 1200; ++i) {
    sampler.Insert(rng.NextDouble(), 1.0);
    if (i % 7 == 0) {
      out.clear();
      sampler.Query(0.0, 1.0, 4, &rng, &out);
    }
    max_pending =
        std::max(max_pending, sampler.epoch_manager()->retired_pending());
  }
  // A single carry chain retires O(log n) components + 1 version; with
  // prompt reclamation the high-water pending stays well under the ~2200
  // total objects retired across the run.
  EXPECT_LE(max_pending, 64u);
  EXPECT_EQ(sampler.versions_published(), 1200u);  // one per insert

  DynamicAlias alias;
  size_t alias_handle = alias.Insert(1.0);
  size_t alias_max_pending = 0;
  for (int i = 0; i < 1000; ++i) {
    alias.SetWeight(alias_handle, 1.0 + (i % 3));
    alias_max_pending = std::max(alias_max_pending,
                                 alias.epoch_manager()->retired_pending());
  }
  // Left-right retires exactly one grace flag per op and reclaims it on
  // the next: never more than a couple outstanding.
  EXPECT_LE(alias_max_pending, 2u);
}

}  // namespace
}  // namespace iqs
