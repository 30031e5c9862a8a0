// Serving-frontend demo: many users, single queries, one live structure.
//
// Four producer threads each fire single-range sampling requests at a
// serve::ServeFrontend over keys (Submit -> ticket), while a writer thread
// churns the underlying LogarithmicRangeSampler with inserts the whole
// time. The frontend coalesces the singleton requests into micro-batches
// (50µs / 64-query window); each flushed batch runs against ONE pinned
// epoch snapshot (the PR-6 path), so no user ever observes a
// half-published version — and nobody ever takes a structure-wide lock.
//
// Build & run:
//   cmake --build build && ./build/examples/serve_demo

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "iqs/iqs.h"

int main() {
  // A live leaderboard: scores are keys, popularity weights attached.
  iqs::LogarithmicRangeSampler scores;
  iqs::Rng seed_rng(7);
  for (int i = 0; i < 20000; ++i) {
    scores.Insert(seed_rng.NextDouble() * 1000.0, 0.5 + seed_rng.NextDouble());
  }

  // The frontend: one structure shard, micro-batch window of 64 queries
  // or 50µs, bounded queue with blocking admission (backpressure).
  iqs::serve::ServeOptions options;
  options.max_batch = 64;
  options.max_delay_ns = 50 * 1000;
  options.queue_capacity = 1024;
  using KeyFrontend = iqs::serve::ServeFrontend<iqs::KeyBatchQuery, double,
                                                iqs::KeyBatchResult>;
  KeyFrontend frontend(
      options,
      [&scores](size_t /*shard*/, std::span<const iqs::KeyBatchQuery> queries,
                iqs::Rng* rng, iqs::ScratchArena* arena,
                const iqs::BatchOptions& opts, iqs::KeyBatchResult* result) {
        scores.QueryBatch(queries, rng, arena, opts, result);
      });

  // Background churn: new scores arrive while every query is served.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    iqs::Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      scores.Insert(1000.0 + rng.NextDouble() * 1000.0, 1.0);
      std::this_thread::yield();
    }
  });

  // Producers: each user submits ONE query at a time and waits on its
  // ticket — the frontend turns this into batched serving transparently.
  constexpr size_t kUsers = 4;
  constexpr size_t kQueriesPerUser = 500;
  std::vector<std::thread> users;
  std::atomic<uint64_t> samples_served{0};
  for (size_t u = 0; u < kUsers; ++u) {
    users.emplace_back([&, u] {
      iqs::Rng rng(1000 + u);
      iqs::serve::ServeTicket<double> ticket;
      for (size_t i = 0; i < kQueriesPerUser; ++i) {
        ticket.Reset();
        const double lo = rng.NextDouble() * 900.0;
        if (!frontend.Submit(0, iqs::KeyBatchQuery{lo, lo + 50.0, 3},
                             &ticket)) {
          continue;  // draining (not in this demo) — treat as shed
        }
        if (ticket.Wait() == iqs::serve::ServeStatus::kOk) {
          samples_served.fetch_add(ticket.samples().size(),
                                   std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : users) t.join();
  frontend.Drain();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  const iqs::serve::ServeShardStats stats = frontend.MergedStats();
  std::printf("served %llu samples for %zu users (%zu queries each)\n",
              static_cast<unsigned long long>(samples_served.load()), kUsers,
              kQueriesPerUser);
  std::printf("structure grew to %zu keys during serving\n", scores.size());
  std::printf("%s", iqs::serve::ServeStatsToText(stats).c_str());
  return 0;
}
