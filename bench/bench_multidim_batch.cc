// E20 — multidim batched serving through the shared CoverExecutor.
//
// Sweeps n x s over the three 2-d samplers (kd-tree, quadtree, 2-d range
// tree) and compares, on identical workloads of fixed-selectivity random
// rectangles:
//   * single: looping the established QueryRect path (per-query cover
//             vectors + per-query engine call);
//   * batch:  one QueryBatch call with a reused ScratchArena /
//             PointBatchResult — all queries' covers in one CoverPlan, one
//             CoverExecutor run (multinomial splits + cross-query grouped
//             draws; the range tree additionally coalesces groups by
//             secondary node).
// Both paths draw from identical per-query distributions (see
// batch_serving_test.cc MultidimBatchTest); differences are pure constant
// factors.
//
// A second, parallel lane runs both range trees (2-d and N-d at d = 2,
// same points) in the deterministic parallel mode on persistent pools of
// 1, 2 and 4 workers against their sequential QueryBatch: cover
// enumeration and the coalesced per-structure draws both run on the
// pool, and the output is byte-identical for every worker count.
//
// Reports samples/sec and writes BENCH_multidim_batch.json (one array;
// each row's "lane" is "single-vs-batch" or "parallel").

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "iqs/multidim/kd_sampler.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/quadtree.h"
#include "iqs/multidim/range_tree.h"
#include "iqs/multidim/range_tree_nd.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using iqs::multidim::Point2;
using iqs::multidim::PointBatchResult;
using iqs::multidim::Rect;
using iqs::multidim::RectBatchQuery;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double Measure(Fn&& fn) {
  fn();  // warm-up (grows arena/result buffers to steady state)
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

std::vector<Point2> RandomPoints(size_t n, iqs::Rng* rng) {
  std::vector<Point2> points(n);
  for (auto& p : points) {
    p.x = rng->NextDouble();
    p.y = rng->NextDouble();
  }
  return points;
}

struct Row {
  std::string structure;
  size_t n = 0;
  size_t batch = 0;
  size_t s = 0;
  double single_sps = 0.0;
  double batch_sps = 0.0;
  double speedup = 0.0;
};

struct ParallelRow {
  std::string structure;
  std::string rects;  // "eighth" or "small"
  size_t n = 0;
  size_t batch = 0;
  size_t s = 0;
  size_t threads = 0;  // 0 = sequential QueryBatch
  double batch_sps = 0.0;
  double speedup_vs_seq = 0.0;
  double speedup_vs_t1 = 0.0;
};

// Random squares, fixed per config: ~1/8 of the area when `small` is
// false, else sides in [0.02, 0.12].
std::vector<RectBatchQuery> RandomRects(size_t batch, size_t s,
                                        bool small = false) {
  iqs::Rng query_rng(2);
  std::vector<RectBatchQuery> queries;
  for (size_t i = 0; i < batch; ++i) {
    const double side =
        small ? 0.02 + 0.1 * query_rng.NextDouble() : std::sqrt(0.125);
    const double x = query_rng.NextDouble() * (1.0 - side);
    const double y = query_rng.NextDouble() * (1.0 - side);
    queries.push_back({Rect{x, x + side, y, y + side}, s});
  }
  return queries;
}

// One parallel-lane config: each range tree's sequential QueryBatch, then
// the parallel mode on each of `pools`.
void RunParallelConfig(const iqs::multidim::RangeTree2DSampler& rtree,
                       const iqs::multidim::RangeTreeNdSampler& nd_tree,
                       std::span<iqs::ThreadPool* const> pools, size_t n,
                       bool small, size_t batch, size_t s,
                       std::vector<ParallelRow>* rows) {
  const std::vector<RectBatchQuery> rects = RandomRects(batch, s, small);
  std::vector<iqs::multidim::BoxBatchQuery> boxes;
  for (const RectBatchQuery& q : rects) {
    iqs::multidim::BoxNd box(2);
    box.set(0, q.rect.x_lo, q.rect.x_hi);
    box.set(1, q.rect.y_lo, q.rect.y_hi);
    boxes.push_back({box, q.s});
  }
  PointBatchResult result;
  iqs::BatchResult nd_result;
  const std::function<void(const iqs::BatchOptions&, iqs::Rng*,
                           iqs::ScratchArena*)>
      serve[2] = {[&](const iqs::BatchOptions& opts, iqs::Rng* rng,
                      iqs::ScratchArena* arena) {
                    rtree.QueryBatch(rects, rng, arena, opts, &result);
                  },
                  [&](const iqs::BatchOptions& opts, iqs::Rng* rng,
                      iqs::ScratchArena* arena) {
                    nd_tree.QueryBatch(boxes, rng, arena, opts, &nd_result);
                  }};
  const char* names[2] = {"range-tree", "range-tree-nd"};
  const double spb = static_cast<double>(batch * s);
  for (int k = 0; k < 2; ++k) {
    double seq_bps = 0.0;
    double t1_bps = 0.0;
    for (size_t p = 0; p <= pools.size(); ++p) {
      // p == 0 is the sequential QueryBatch.
      iqs::BatchOptions opts;
      if (p > 0) {
        opts.pool = pools[p - 1];
        opts.num_threads = opts.pool->num_threads();
      }
      const size_t threads = opts.num_threads;
      iqs::Rng rng(3);
      iqs::ScratchArena arena;
      const double bps = Measure([&] { serve[k](opts, &rng, &arena); });
      if (threads == 0) seq_bps = bps;
      if (threads == 1) t1_bps = bps;
      ParallelRow row;
      row.structure = names[k];
      row.rects = small ? "small" : "eighth";
      row.n = n;
      row.batch = batch;
      row.s = s;
      row.threads = threads;
      row.batch_sps = bps * spb;
      row.speedup_vs_seq = bps / seq_bps;
      row.speedup_vs_t1 = threads > 0 ? bps / t1_bps : 0.0;
      rows->push_back(row);
      if (threads == 0) {
        std::printf("%-14s %-6s %9zu %6zu %5zu %8s %12.3e %7s %7s\n",
                    row.structure.c_str(), row.rects.c_str(), n, batch, s,
                    "seq", row.batch_sps, "-", "-");
      } else {
        std::printf("%-14s %-6s %9zu %6zu %5zu %8zu %12.3e %6.2fx %6.2fx\n",
                    row.structure.c_str(), row.rects.c_str(), n, batch, s,
                    threads, row.batch_sps, row.speedup_vs_seq,
                    row.speedup_vs_t1);
      }
    }
  }
}

// The parallel lane over both range trees (same points), on 1/8-area
// squares and on small ones (sides 0.02-0.12). The pools live for the
// whole lane, as a
// server's would, and each is first driven for ~2 s: freshly spawned
// workers can take seconds to be spread over the cores (EXPERIMENTS.md
// E20), far longer than one config runs.
void RunParallelLane(std::vector<ParallelRow>* rows) {
  iqs::ThreadPool pool1(1);
  iqs::ThreadPool pool2(2);
  iqs::ThreadPool pool4(4);
  iqs::ThreadPool* const pools[] = {&pool1, &pool2, &pool4};
  std::printf(
      "\nE20 parallel lane: range trees, sequential QueryBatch vs the "
      "parallel mode on persistent pools (samples/sec)\n");
  std::printf("%-14s %-6s %9s %6s %5s %8s %12s %7s %7s\n", "structure",
              "rects", "n", "batch", "s", "threads", "batch sps", "x seq",
              "x t1");
  for (const size_t n : {size_t{1} << 14, size_t{1} << 17}) {
    iqs::Rng data_rng(1);
    const auto points = RandomPoints(n, &data_rng);
    const auto weights = iqs::ZipfWeights(n, 1.0, &data_rng);
    std::vector<double> coords;
    coords.reserve(2 * n);
    for (const Point2& p : points) {
      coords.push_back(p.x);
      coords.push_back(p.y);
    }
    const iqs::multidim::RangeTree2DSampler rtree(points, weights);
    const iqs::multidim::RangeTreeNdSampler nd_tree(2, coords, weights);
    const std::vector<RectBatchQuery> warm_rects =
        RandomRects(/*batch=*/128, /*s=*/16, /*small=*/true);
    for (iqs::ThreadPool* pool : pools) {
      iqs::BatchOptions opts;
      opts.num_threads = pool->num_threads();
      opts.pool = pool;
      iqs::Rng rng(4);
      iqs::ScratchArena arena;
      PointBatchResult result;
      const Clock::time_point start = Clock::now();
      while (SecondsSince(start) < 2.0) {
        rtree.QueryBatch(warm_rects, &rng, &arena, opts, &result);
      }
    }
    for (const bool small : {false, true}) {
      for (const size_t s : {size_t{16}, size_t{256}}) {
        RunParallelConfig(rtree, nd_tree, pools, n, small, /*batch=*/128, s,
                          rows);
      }
    }
  }
}

}  // namespace

int main() {
  std::printf(
      "E20: multidim batched serving throughput (samples/sec) — looped "
      "QueryRect vs QueryBatch over the shared CoverExecutor\n");
  std::printf("%-12s %9s %6s %5s %12s %12s %8s\n", "structure", "n", "batch",
              "s", "single sps", "batch sps", "speedup");

  std::vector<Row> rows;
  const size_t batch = 128;
  for (const size_t n : {size_t{1} << 14, size_t{1} << 17}) {
    iqs::Rng data_rng(1);
    const auto points = RandomPoints(n, &data_rng);
    const auto weights = iqs::ZipfWeights(n, 1.0, &data_rng);

    const iqs::multidim::KdTreeSampler kd(points, weights);
    const iqs::multidim::QuadtreeSampler quad(points, weights);
    const iqs::multidim::RangeTree2DSampler rtree(points, weights);

    struct Lane {
      const char* name;
      std::function<void(const Rect&, size_t, iqs::Rng*,
                         std::vector<Point2>*)>
          single;
      std::function<void(const std::vector<RectBatchQuery>&, iqs::Rng*,
                         iqs::ScratchArena*, PointBatchResult*)>
          batch_call;
    };
    const Lane lanes[3] = {
        {"kd-tree",
         [&](const Rect& q, size_t s, iqs::Rng* rng,
             std::vector<Point2>* out) { kd.QueryRect(q, s, rng, out); },
         [&](const std::vector<RectBatchQuery>& qs, iqs::Rng* rng,
             iqs::ScratchArena* arena, PointBatchResult* result) {
           kd.QueryBatch(qs, rng, arena, result);
         }},
        {"quadtree",
         [&](const Rect& q, size_t s, iqs::Rng* rng,
             std::vector<Point2>* out) { quad.QueryRect(q, s, rng, out); },
         [&](const std::vector<RectBatchQuery>& qs, iqs::Rng* rng,
             iqs::ScratchArena* arena, PointBatchResult* result) {
           quad.QueryBatch(qs, rng, arena, result);
         }},
        {"range-tree",
         [&](const Rect& q, size_t s, iqs::Rng* rng,
             std::vector<Point2>* out) { rtree.QueryRect(q, s, rng, out); },
         [&](const std::vector<RectBatchQuery>& qs, iqs::Rng* rng,
             iqs::ScratchArena* arena, PointBatchResult* result) {
           rtree.QueryBatch(qs, rng, arena, result);
         }},
    };

    for (const Lane& lane : lanes) {
      for (const size_t s : {size_t{16}, size_t{64}, size_t{256}}) {
        // Fixed query set per config: ~1/8-area rectangles, so covers are
        // nontrivial on every structure.
        const std::vector<RectBatchQuery> queries = RandomRects(batch, s);

        iqs::Rng single_rng(3);
        std::vector<Point2> single_out;
        const double single_bps = Measure([&] {
          single_out.clear();
          for (const RectBatchQuery& q : queries) {
            lane.single(q.rect, q.s, &single_rng, &single_out);
          }
        });

        iqs::Rng batch_rng(3);
        iqs::ScratchArena arena;
        PointBatchResult result;
        const double batch_bps = Measure([&] {
          lane.batch_call(queries, &batch_rng, &arena, &result);
        });

        Row row;
        row.structure = lane.name;
        row.n = n;
        row.batch = batch;
        row.s = s;
        const double spb = static_cast<double>(batch * s);
        row.single_sps = single_bps * spb;
        row.batch_sps = batch_bps * spb;
        row.speedup = batch_bps / single_bps;
        rows.push_back(row);

        std::printf("%-12s %9zu %6zu %5zu %12.3e %12.3e %7.2fx\n",
                    row.structure.c_str(), n, batch, s, row.single_sps,
                    row.batch_sps, row.speedup);
      }
    }
  }

  std::vector<ParallelRow> parallel_rows;
  RunParallelLane(&parallel_rows);

  std::FILE* json = std::fopen("BENCH_multidim_batch.json", "w");
  if (json != nullptr) {
    const size_t total = rows.size() + parallel_rows.size();
    size_t written = 0;
    std::fprintf(json, "[\n");
    for (const Row& r : rows) {
      std::fprintf(json,
                   "  {\"lane\": \"single-vs-batch\", \"structure\": \"%s\", "
                   "\"n\": %zu, \"batch\": %zu, \"s\": %zu, "
                   "\"single_sps\": %.6e, \"batch_sps\": %.6e, "
                   "\"speedup\": %.4f}%s\n",
                   r.structure.c_str(), r.n, r.batch, r.s, r.single_sps,
                   r.batch_sps, r.speedup, ++written < total ? "," : "");
    }
    for (const ParallelRow& r : parallel_rows) {
      std::fprintf(json,
                   "  {\"lane\": \"parallel\", \"structure\": \"%s\", "
                   "\"rects\": \"%s\", \"n\": %zu, \"batch\": %zu, "
                   "\"s\": %zu, \"threads\": %zu, \"batch_sps\": %.6e, "
                   "\"speedup_vs_seq\": %.4f, \"speedup_vs_t1\": %.4f}%s\n",
                   r.structure.c_str(), r.rects.c_str(), r.n, r.batch, r.s,
                   r.threads,
                   r.batch_sps, r.speedup_vs_seq, r.speedup_vs_t1,
                   ++written < total ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_multidim_batch.json (%zu rows)\n", total);
  }
  return 0;
}
