#include "iqs/range/range_sampler.h"

#include <algorithm>
#include <cmath>

#include "iqs/util/telemetry.h"

namespace iqs {

RangeSampler::RangeSampler(std::span<const double> keys)
    : keys_(keys.begin(), keys.end()), n_(keys.size()) {
  IQS_CHECK(!keys_.empty());
  for (size_t i = 1; i < keys_.size(); ++i) {
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(keys_[i - 1] < keys_[i]);
  }
}

RangeSampler::RangeSampler(size_t n) : n_(n) { IQS_CHECK(n >= 1); }

bool RangeSampler::ResolveInterval(double lo, double hi, size_t* a,
                                   size_t* b) const {
  if (!(lo <= hi)) return false;  // inverted, or a NaN bound
  if (keys_.empty()) {
    // Position keys 0..n-1: the keys in [lo, hi] are ceil(lo)..floor(hi),
    // clipped to the positions that exist.
    const double first = std::max(0.0, std::ceil(lo));
    const double last = std::min(static_cast<double>(n_ - 1), std::floor(hi));
    if (!(first <= last)) return false;
    *a = static_cast<size_t>(first);
    *b = static_cast<size_t>(last);
    return true;
  }
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  if (first == keys_.end() || *first > hi) return false;
  const auto last = std::upper_bound(first, keys_.end(), hi);
  *a = static_cast<size_t>(first - keys_.begin());
  *b = static_cast<size_t>(last - keys_.begin()) - 1;
  return true;
}

bool RangeSampler::Query(double lo, double hi, size_t s, Rng* rng,
                         std::vector<size_t>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveInterval(lo, hi, &a, &b)) return false;
  QueryPositions(a, b, s, rng, out);
  return true;
}

void RangeSampler::QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                              ScratchArena* arena,
                              BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void RangeSampler::QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                              ScratchArena* arena, const BatchOptions& opts,
                              BatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);

  // Resolve all intervals up front; unresolved queries keep s == 0 so the
  // position pass below can stay branch-light.
  const std::span<PositionQuery> resolved = arena->Alloc<PositionQuery>(q);
  size_t total_samples = 0;
  for (size_t i = 0; i < q; ++i) {
    PositionQuery& pq = resolved[i];
    const bool ok =
        ResolveInterval(queries[i].lo, queries[i].hi, &pq.a, &pq.b);
    result->resolved[i] = ok ? 1 : 0;
    pq.s = ok ? queries[i].s : 0;
    result->offsets[i] = total_samples;
    total_samples += pq.s;
  }
  result->offsets[q] = total_samples;

  result->positions.clear();
  result->positions.reserve(total_samples);
  QueryPositionsBatch(resolved, rng, arena, opts, &result->positions);
  IQS_CHECK(result->positions.size() == total_samples);
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

void RangeSampler::QueryPositionsBatch(std::span<const PositionQuery> queries,
                                       Rng* rng, ScratchArena* arena,
                                       const BatchOptions& opts,
                                       std::vector<size_t>* out) const {
  if (opts.sequential()) {
    for (const PositionQuery& q : queries) {
      if (q.s == 0) continue;
      QueryPositions(q.a, q.b, q.s, rng, out);
    }
    return;
  }

  // Generic parallel fallback: whole requests are the shardable unit,
  // each served by QueryPositions under its own substream (see
  // BatchOptions for the determinism argument). Subclasses with grouped
  // kernels override this with a CoverExecutor::ExecuteParallel pipeline.
  ScopedPool pool(opts);
  const Rng base(rng->Next64());
  const size_t nq = queries.size();
  const std::span<size_t> offsets = arena->Alloc<size_t>(nq + 1);
  size_t total = 0;
  for (size_t i = 0; i < nq; ++i) {
    offsets[i] = total;
    total += queries[i].s;
  }
  offsets[nq] = total;
  if (total == 0) return;
  const size_t base_size = out->size();
  out->resize(base_size + total);
  const std::span<size_t> dst =
      std::span<size_t>(*out).subspan(base_size, total);
  ParallelForShards(
      pool.get(), nq, [&](size_t first, size_t last, size_t /*worker*/) {
        thread_local std::vector<size_t> buf;
        for (size_t q = first; q < last; ++q) {
          if (queries[q].s == 0) continue;
          Rng qrng = base.ForkStream(q);
          buf.clear();
          QueryPositions(queries[q].a, queries[q].b, queries[q].s, &qrng,
                         &buf);
          IQS_DCHECK(buf.size() == queries[q].s);
          std::copy(buf.begin(), buf.end(), dst.begin() + offsets[q]);
        }
      });
}

}  // namespace iqs
