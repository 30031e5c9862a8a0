#include "iqs/cover/coverage_engine.h"

#include <algorithm>

#include "iqs/cover/cover_executor.h"
#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

namespace iqs {

namespace {

// Single-query entry points share per-thread serving state so they ride
// the batched pipeline without a signature change.
ScratchArena* LocalArena() {
  thread_local ScratchArena arena;
  return &arena;
}

}  // namespace

CoverageEngine::CoverageEngine(std::span<const double> position_weights,
                               ThreadPool* build_pool)
    : sampler_(position_weights, /*chunk_size=*/0, build_pool) {}

void CoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                 ScratchArena* arena, const BatchOptions& opts,
                                 std::vector<size_t>* out) const {
  CoverExecutor::ExecuteOverSampler(plan, sampler_, rng, arena, opts, out);
}

void CoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                 ScratchArena* arena,
                                 std::vector<size_t>* out) const {
  SampleBatch(plan, rng, arena, BatchOptions{}, out);
}

void CoverageEngine::Sample(std::span<const CoverRange> cover, size_t s,
                            Rng* rng, std::vector<size_t>* out) const {
  if (s == 0 || cover.empty()) return;
  thread_local CoverPlan plan;
  plan.Clear();
  plan.BeginQuery(s);
  for (const CoverRange& range : cover) {
    IQS_DCHECK(range.lo <= range.hi);
    plan.AddGroup(range);
  }
  ScratchArena* arena = LocalArena();
  arena->Reset();
  SampleBatch(plan, rng, arena, out);
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng, ScratchArena* arena,
                                         const BatchOptions& opts,
                                         std::vector<size_t>* out) const {
  if (s == 0 || cover.empty()) return;
  thread_local CoverPlan plan;
  out->reserve(out->size() + s);
  const size_t base = out->size();
  size_t produced = 0;
  // Draw candidate batches of the remaining deficit directly into `out`
  // and compact the accepted ones in place — no candidate buffer; the
  // split/draw scratch of every retry round comes from `arena`. With a
  // constant-density approximate cover each round converts a constant
  // fraction, so the expected total work is O(s).
  size_t round = 0;
  uint64_t attempts = 0;
  while (produced < s) {
    const size_t deficit = s - produced;
    plan.Clear();
    if (opts.sequential()) {
      plan.BeginQuery(deficit);
      for (const CoverRange& range : cover) plan.AddGroup(range);
    } else {
      // Cut the deficit into fixed-size sub-queries: the slicing depends
      // only on the deficit (never on the thread count), each slice runs
      // under its own substream, and slices land contiguously in plan
      // order — so the round's candidate block is bit-identical for every
      // thread count, and the sequential compaction below keeps it so.
      constexpr size_t kSlice = 1024;
      for (size_t done = 0; done < deficit; done += kSlice) {
        plan.BeginQuery(std::min(kSlice, deficit - done));
        for (const CoverRange& range : cover) plan.AddGroup(range);
      }
    }
    SampleBatch(plan, rng, arena, opts, out);
    size_t write = base + produced;
    attempts += out->size() - write;
    for (size_t read = write; read < out->size(); ++read) {
      if (accepts((*out)[read])) (*out)[write++] = (*out)[read];
    }
    produced = write - base;
    out->resize(base + produced);
    // Guard against a cover that contains no qualifying element at all —
    // a caller bug: the acceptance rate would be 0 and the loop endless.
    // iqs-lint: allow(check-in-loop) -- aborts a non-converging rejection loop
    IQS_CHECK(++round < 64 * (s + 1) &&
              "rejection sampling is not converging; is the cover valid?");
  }
  if (opts.telemetry != nullptr) {
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->rejection_attempts += attempts;
    stats->rejection_rounds += round;
  }
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng, ScratchArena* arena,
                                         std::vector<size_t>* out) const {
  SampleWithRejection(cover, s, accepts, rng, arena, BatchOptions{}, out);
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng,
                                         std::vector<size_t>* out) const {
  ScratchArena* arena = LocalArena();
  arena->Reset();
  SampleWithRejection(cover, s, accepts, rng, arena, BatchOptions{}, out);
}

VersionedCoverageEngine::VersionedCoverageEngine(
    std::span<const double> position_weights)
    : engine_(std::make_unique<const CoverageEngine>(position_weights)) {}

void VersionedCoverageEngine::Rebuild(
    std::span<const double> position_weights) {
  MutexLock lock(&writer_mu_);
  const uint64_t start_ns = sink_ != nullptr ? TelemetryNowNs() : 0;
  // The full replacement engine is built privately (chunk builds on the
  // pool) before a single atomic publish — readers never see it partial.
  auto next = std::make_unique<const CoverageEngine>(position_weights, pool_);
  engine_.Publish(std::move(next), pool_);
  if (sink_ != nullptr) {
    // Serialized writer path; shard 0 of the structure's own sink.
    QueryStats* stats = &sink_->shard(0)->stats;
    stats->versions_published += 1;
    const EpochManager* epoch = engine_.epoch_manager();
    const uint64_t reclaimed = epoch->reclaimed();
    stats->versions_reclaimed += reclaimed - last_reclaimed_;
    last_reclaimed_ = reclaimed;
    const uint64_t pins = epoch->reader_pins();
    stats->reader_pins += pins - last_pins_;
    last_pins_ = pins;
    stats->rebuild_ns += TelemetryNowNs() - start_ns;
  }
}

void VersionedCoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                          ScratchArena* arena,
                                          const BatchOptions& opts,
                                          std::vector<size_t>* out) const {
  // One pin serves the entire batch: every query of the plan executes
  // against the same engine no matter what Rebuild() publishes meanwhile.
  const Snapshot<CoverageEngine> snap = engine_.Acquire();
  snap->SampleBatch(plan, rng, arena, opts, out);
}

void VersionedCoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                          ScratchArena* arena,
                                          std::vector<size_t>* out) const {
  SampleBatch(plan, rng, arena, BatchOptions{}, out);
}

void VersionedCoverageEngine::Sample(std::span<const CoverRange> cover,
                                     size_t s, Rng* rng,
                                     std::vector<size_t>* out) const {
  const Snapshot<CoverageEngine> snap = engine_.Acquire();
  snap->Sample(cover, s, rng, out);
}

}  // namespace iqs
