// E21 — parallel batch serving (BatchOptions{num_threads}).
//
// Sweeps threads x n x s over the three 1-d RangeSampler implementations,
// comparing the sequential QueryBatch path (num_threads = 0) against the
// deterministic parallel mode at 1, 2, 4 and 8 threads with persistent
// ThreadPools (the recommended serving setup: pool construction is paid
// once, not per batch). Each pool lives for the whole sweep and is first
// driven for ~2 s, because freshly spawned workers can take seconds to be
// spread over the cores (EXPERIMENTS.md E20) — longer than a config runs.
// The parallel mode re-keys every query onto its own RNG substream, so its
// output is bit-identical for every thread count; the sweep measures the
// pure scheduling + sharding cost/benefit.
//
// threads = 1 isolates the overhead of the substream mode itself
// (ForkStream per query, two-pass split/draw) with no parallelism; the
// speedup column for k >= 2 divides by that one-thread parallel-mode
// baseline so it reflects scaling, while "x seq" compares against the
// sequential path a caller would otherwise use.
//
// Reports samples/sec and writes BENCH_parallel_serving.json (array of
// row objects) for trajectory tracking.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `fn` (one whole batch per call) until ~0.2s elapsed, returns
// batches/sec.
template <typename Fn>
double Measure(Fn&& fn) {
  fn();  // warm-up (also grows arena/result buffers to steady state)
  size_t reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = SecondsSince(start);
  } while (elapsed < 0.2);
  return static_cast<double>(reps) / elapsed;
}

struct Row {
  std::string sampler;
  size_t n = 0;
  size_t batch = 0;
  size_t s = 0;
  size_t threads = 0;  // 0 = sequential legacy path
  double sps = 0.0;
  double speedup_vs_seq = 0.0;
  double speedup_vs_t1 = 0.0;
};

}  // namespace

int main() {
  constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
  constexpr size_t kBatch = 256;

  std::printf(
      "E21: parallel batch serving throughput (samples/sec) — sequential "
      "QueryBatch vs BatchOptions{num_threads} with a persistent pool\n");
  std::printf("%-22s %9s %6s %5s %8s %11s %7s %7s\n", "sampler", "n", "batch",
              "s", "threads", "sps", "x seq", "x t1");

  std::vector<std::unique_ptr<iqs::ThreadPool>> pools;
  for (const size_t threads : kThreadCounts) {
    pools.push_back(std::make_unique<iqs::ThreadPool>(threads));
  }

  std::vector<Row> rows;
  for (const size_t n : {size_t{1} << 16, size_t{1} << 20}) {
    iqs::Rng data_rng(1);
    const auto keys = iqs::UniformKeys(n, &data_rng);
    const auto weights = iqs::ZipfWeights(n, 1.0, &data_rng);

    const auto bst = std::make_unique<iqs::BstRangeSampler>(keys, weights);
    const auto aug = std::make_unique<iqs::AugRangeSampler>(keys, weights);
    const auto chunked =
        std::make_unique<iqs::ChunkedRangeSampler>(keys, weights);
    const iqs::RangeSampler* samplers[3] = {bst.get(), aug.get(),
                                            chunked.get()};

    {
      // Drive every pool before measuring (see the header comment).
      iqs::Rng query_rng(2);
      std::vector<iqs::BatchQuery> warm_queries;
      for (size_t i = 0; i < kBatch; ++i) {
        const auto [lo, hi] =
            iqs::IntervalWithSelectivity(keys, n / 8, &query_rng);
        warm_queries.push_back({lo, hi, 64});
      }
      iqs::ScratchArena arena;
      iqs::BatchResult result;
      for (const auto& pool : pools) {
        iqs::BatchOptions opts;
        opts.num_threads = pool->num_threads();
        opts.pool = pool.get();
        iqs::Rng rng(4);
        const Clock::time_point start = Clock::now();
        while (SecondsSince(start) < 2.0) {
          chunked->QueryBatch(warm_queries, &rng, &arena, opts, &result);
        }
      }
    }

    for (const iqs::RangeSampler* sampler : samplers) {
      for (const size_t s : {size_t{64}, size_t{256}}) {
        // Fixed query set per config: ~n/8-selectivity intervals.
        iqs::Rng query_rng(2);
        std::vector<iqs::BatchQuery> queries;
        for (size_t i = 0; i < kBatch; ++i) {
          const auto [lo, hi] =
              iqs::IntervalWithSelectivity(keys, n / 8, &query_rng);
          queries.push_back({lo, hi, s});
        }
        const double spb = static_cast<double>(kBatch * s);

        iqs::Rng seq_rng(3);
        iqs::ScratchArena arena;
        iqs::BatchResult result;
        const double seq_bps = Measure([&] {
          sampler->QueryBatch(queries, &seq_rng, &arena, &result);
        });
        Row seq_row;
        seq_row.sampler = std::string(sampler->name());
        seq_row.n = n;
        seq_row.batch = kBatch;
        seq_row.s = s;
        seq_row.threads = 0;
        seq_row.sps = seq_bps * spb;
        seq_row.speedup_vs_seq = 1.0;
        rows.push_back(seq_row);
        std::printf("%-22s %9zu %6zu %5zu %8s %11.3e %7s %7s\n",
                    seq_row.sampler.c_str(), n, kBatch, s, "seq", seq_row.sps,
                    "-", "-");

        double t1_bps = 0.0;
        for (const auto& pool : pools) {
          const size_t threads = pool->num_threads();
          iqs::BatchOptions opts;
          opts.num_threads = threads;
          opts.pool = pool.get();
          iqs::Rng par_rng(3);
          const double par_bps = Measure([&] {
            sampler->QueryBatch(queries, &par_rng, &arena, opts, &result);
          });
          if (threads == 1) t1_bps = par_bps;

          Row row;
          row.sampler = std::string(sampler->name());
          row.n = n;
          row.batch = kBatch;
          row.s = s;
          row.threads = threads;
          row.sps = par_bps * spb;
          row.speedup_vs_seq = par_bps / seq_bps;
          row.speedup_vs_t1 = par_bps / t1_bps;
          rows.push_back(row);
          std::printf("%-22s %9zu %6zu %5zu %8zu %11.3e %6.2fx %6.2fx\n",
                      row.sampler.c_str(), n, kBatch, s, threads, row.sps,
                      row.speedup_vs_seq, row.speedup_vs_t1);
        }
      }
    }
  }

  std::FILE* json = std::fopen("BENCH_parallel_serving.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "  {\"sampler\": \"%s\", \"n\": %zu, \"batch\": %zu, \"s\": %zu, "
          "\"threads\": %zu, \"sps\": %.6e, \"speedup_vs_seq\": %.4f, "
          "\"speedup_vs_t1\": %.4f}%s\n",
          r.sampler.c_str(), r.n, r.batch, r.s, r.threads, r.sps,
          r.speedup_vs_seq, r.speedup_vs_t1, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel_serving.json (%zu rows)\n",
                rows.size());
  }
  return 0;
}
