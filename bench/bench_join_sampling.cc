// E26 — join sampling vs brute-force enumeration + reservoir.
//
// The generality test of the cover pipeline (ISSUE 10 / ROADMAP item 3):
// drawing s i.i.d. uniform pairs from a 2-d rectangle intersection join
// whose result J is never materialized. Two ways to answer the same
// request, same geometry, same budget:
//
//   * brute  — the output-sensitive baseline everyone starts from:
//     plane-sweep ENUMERATION of J feeding a without-replacement-style
//     two-pass uniform pick (join/join_enumerator.h's
//     BruteForceJoinSample). Cost Omega(|J|) per request, and |J| grows
//     quadratically in n at fixed selectivity.
//   * sampler — JoinSampler: phase-1 weighted sweep once at build
//     (O(n log n)-ish, counting J without enumerating it), then every
//     batch copies the next pairs of a shuffled pool of P = n i.i.d.
//     pairs (paper §8 set sampling) that a filler thread refills with
//     one replay sweep per generation — independent of |J|.
//
// The sweep holds join selectivity |J| / (n_R * n_S) near 1.6% (x-extents
// ~2% of the domain, y-extents ~80%, independent uniform corners) and
// doubles n — so |J| runs from ~1e6 to ~4e9 pairs while the per-batch
// budget stays fixed at 64 queries x 32 pairs. The pooled columns:
//   * cold_ms — the first batch, which starts the filler and waits for
//     generation 0: one fill of P pairs (build_ns is reported apart);
//   * fill_ns_pair — cold_ms / P, the filler's cost per pooled pair,
//     i.e. the sustained rate when demand outruns the pool;
//   * pair_ns — the next batch, which fits in what is left of generation
//     0, per pair handed out: the steady-state serving cost.
// spd_cold compares brute force against build + cold first batch (the
// fair one-shot comparison), spd_batch against the steady-state batch.
// The brute pass runs once per n (it IS the cost being demonstrated;
// repeating it would only slow the suite).
//
// Writes BENCH_join_sampling.json (array of row objects).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "iqs/join/join_batch.h"
#include "iqs/join/join_enumerator.h"
#include "iqs/join/join_sampler.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"

namespace {

constexpr size_t kTotalSizes[] = {1 << 14, 1 << 16, 1 << 18, 1 << 20};
constexpr size_t kQueriesPerBatch = 64;
constexpr size_t kSamplesPerQuery = 32;

// Selectivity-pinning geometry: P(x-overlap) ~ 2%, P(y-overlap) ~ 80%.
constexpr double kDomainX = 1000.0;
constexpr double kMaxWidthX = 20.0;
constexpr double kDomainY = 200.0;
constexpr double kMaxLenY = 160.0;

struct Row {
  size_t n_total = 0;
  uint64_t join_size = 0;
  double selectivity_pct = 0.0;
  uint64_t build_ns = 0;
  size_t pool_size = 0;
  uint64_t cold_ns = 0;   // first batch: waits for one fill
  uint64_t batch_ns = 0;  // steady-state batch: pool handout only
  uint64_t brute_ns = 0;
  double speedup_batch = 0.0;  // brute / batch (the steady-state ratio)
  double speedup_cold = 0.0;   // brute / (build + cold) (one-shot ratio)
  size_t memory_bytes = 0;
};

std::vector<iqs::multidim::Rect> MakeRects(size_t n, uint64_t seed) {
  iqs::Rng rng(seed);
  std::vector<iqs::multidim::Rect> rects(n);
  for (iqs::multidim::Rect& rect : rects) {
    rect.x_lo = rng.NextDouble() * kDomainX;
    rect.x_hi = rect.x_lo + rng.NextDouble() * kMaxWidthX;
    rect.y_lo = rng.NextDouble() * kDomainY;
    rect.y_hi = rect.y_lo + rng.NextDouble() * kMaxLenY;
  }
  return rects;
}

double PerPair(uint64_t ns, size_t pairs) {
  return static_cast<double>(ns) / static_cast<double>(pairs);
}

void PrintRow(const Row& r) {
  const size_t batch_pairs = kQueriesPerBatch * kSamplesPerQuery;
  std::printf("%8zu %12" PRIu64 " %7.3f %12" PRIu64 " %9.1f %12.1f %8.1f"
              " %14" PRIu64 " %10.1f %10.1f %12zu\n",
              r.n_total, r.join_size, r.selectivity_pct, r.build_ns,
              static_cast<double>(r.cold_ns) / 1e6,
              PerPair(r.cold_ns, r.pool_size), PerPair(r.batch_ns, batch_pairs),
              r.brute_ns, r.speedup_batch, r.speedup_cold, r.memory_bytes);
}

}  // namespace

int main() {
  std::printf(
      "E26: join sampling (JoinSampler, |J| never materialized, served "
      "from a pool of P = n pairs) vs brute-force enumeration+reservoir, "
      "batch = %zu queries x %zu pairs, selectivity pinned near 1.6%%\n",
      kQueriesPerBatch, kSamplesPerQuery);
  std::printf("%8s %12s %7s %12s %9s %12s %8s %14s %10s %10s %12s\n",
              "n_total", "join_size", "sel_%", "build_ns", "cold_ms",
              "fill_ns_pair", "pair_ns", "brute_ns", "spd_batch", "spd_cold",
              "mem_bytes");

  std::vector<Row> rows;
  for (const size_t n_total : kTotalSizes) {
    const size_t half = n_total / 2;
    const std::vector<iqs::multidim::Rect> rel_r = MakeRects(half, 101);
    const std::vector<iqs::multidim::Rect> rel_s = MakeRects(half, 202);

    Row row;
    row.n_total = n_total;

    const uint64_t build_start = iqs::TelemetryNowNs();
    const iqs::join::JoinSampler sampler(rel_r, rel_s);
    row.build_ns = iqs::TelemetryNowNs() - build_start;
    row.join_size = sampler.JoinSize();
    row.selectivity_pct = 100.0 * static_cast<double>(row.join_size) /
                          (static_cast<double>(half) *
                           static_cast<double>(half));
    row.memory_bytes = sampler.MemoryBytes();

    // Cold: the first batch starts the filler and waits for generation
    // 0. Steady state: the next batch fits in the rest of generation 0
    // (P = n_total >= 2 batches), so it times the handout alone.
    const std::vector<iqs::join::JoinBatchQuery> queries(
        kQueriesPerBatch, iqs::join::JoinBatchQuery{kSamplesPerQuery});
    row.pool_size = sampler.pool_size();
    iqs::Rng rng(42);
    iqs::ScratchArena arena;
    iqs::join::JoinBatchResult result;
    const uint64_t cold_start = iqs::TelemetryNowNs();
    sampler.SampleJoinBatch(queries, &rng, &arena, &result);
    row.cold_ns = iqs::TelemetryNowNs() - cold_start;
    const uint64_t batch_start = iqs::TelemetryNowNs();
    sampler.SampleJoinBatch(queries, &rng, &arena, &result);
    row.batch_ns = iqs::TelemetryNowNs() - batch_start;

    // The baseline pays |J| per request: one request, timed once.
    std::vector<iqs::join::JoinPair> brute_out;
    iqs::Rng brute_rng(43);
    const uint64_t brute_start = iqs::TelemetryNowNs();
    iqs::join::BruteForceJoinSample(rel_r, rel_s,
                                    kQueriesPerBatch * kSamplesPerQuery,
                                    &brute_rng, &brute_out);
    row.brute_ns = iqs::TelemetryNowNs() - brute_start;

    row.speedup_batch = static_cast<double>(row.brute_ns) /
                        static_cast<double>(row.batch_ns);
    row.speedup_cold = static_cast<double>(row.brute_ns) /
                       static_cast<double>(row.build_ns + row.cold_ns);
    rows.push_back(row);
    PrintRow(row);
  }

  std::FILE* json = std::fopen("BENCH_join_sampling.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "  {\"n_total\": %zu, \"join_size\": %" PRIu64
          ", \"selectivity_pct\": %.4f, \"build_ns\": %" PRIu64
          ", \"pool_size\": %zu, \"cold_first_batch_ns\": %" PRIu64
          ", \"fill_ns_per_pair\": %.1f, \"batch_ns\": %" PRIu64
          ", \"handout_ns_per_pair\": %.2f, \"brute_ns\": %" PRIu64
          ", \"speedup_batch\": %.2f, \"speedup_cold\": %.2f, "
          "\"memory_bytes\": %zu}%s\n",
          r.n_total, r.join_size, r.selectivity_pct, r.build_ns, r.pool_size,
          r.cold_ns, PerPair(r.cold_ns, r.pool_size), r.batch_ns,
          PerPair(r.batch_ns, kQueriesPerBatch * kSamplesPerQuery),
          r.brute_ns, r.speedup_batch, r.speedup_cold, r.memory_bytes,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_join_sampling.json (%zu rows)\n", rows.size());
  }
  return 0;
}
