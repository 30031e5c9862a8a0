#include "iqs/range/integer_range_sampler.h"

#include <algorithm>

#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

namespace iqs {

StaticYFastIndex::StaticYFastIndex(std::span<const uint64_t> keys,
                                   int key_bits)
    : key_bits_(key_bits), keys_(keys.begin(), keys.end()) {
  IQS_CHECK(key_bits_ >= 1 && key_bits_ <= 64);
  IQS_CHECK(!keys_.empty());
  for (size_t i = 0; i < keys_.size(); ++i) {
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    if (key_bits_ < 64) IQS_CHECK(keys_[i] < (uint64_t{1} << key_bits_));
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    if (i > 0) IQS_CHECK(keys_[i - 1] < keys_[i]);
  }
  bucket_size_ = std::max<size_t>(1, static_cast<size_t>(key_bits_));

  // Representatives: first key of each bucket.
  for (size_t i = 0; i < keys_.size(); i += bucket_size_) {
    reps_.push_back(keys_[i]);
  }

  // x-fast trie over the representatives: one hash level per prefix
  // length, each node recording the rep-index span below it.
  levels_.resize(static_cast<size_t>(key_bits_) + 1);
  for (uint32_t r = 0; r < reps_.size(); ++r) {
    for (int level = 0; level <= key_bits_; ++level) {
      const uint64_t prefix = level == 64 ? 0 : reps_[r] >> level;
      auto [it, inserted] = levels_[static_cast<size_t>(level)].emplace(
          prefix, TrieNode{r, r});
      if (!inserted) {
        it->second.min_rep = std::min(it->second.min_rep, r);
        it->second.max_rep = std::max(it->second.max_rep, r);
      }
    }
  }
}

std::optional<size_t> StaticYFastIndex::Predecessor(uint64_t q) const {
  if (q < keys_[0]) return std::nullopt;
  if (key_bits_ < 64 && q >= (uint64_t{1} << key_bits_)) {
    return keys_.size() - 1;  // above the whole universe
  }
  // Binary search for the lowest level whose prefix of q exists in the
  // trie — the longest common prefix between q and any representative.
  // Invariant: prefix exists at `hi`, does not exist below `lo - 1`...
  size_t rep_index;
  const auto& level0 = levels_[0];
  if (level0.contains(q)) {
    rep_index = level0.at(q).min_rep;
  } else {
    int lo = 0;  // prefix at level lo may or may not exist
    int hi = key_bits_;  // root always exists
    while (lo + 1 < hi) {
      const int mid = (lo + hi) / 2;
      const uint64_t prefix = mid == 64 ? 0 : q >> mid;
      if (levels_[static_cast<size_t>(mid)].contains(prefix)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    // `hi` is the lowest existing level; q's branch at bit hi-1 is absent.
    const uint64_t prefix = hi == 64 ? 0 : q >> hi;
    const TrieNode& node = levels_[static_cast<size_t>(hi)].at(prefix);
    const bool q_goes_right = ((q >> (hi - 1)) & 1) != 0;
    if (q_goes_right) {
      // Everything under this node is smaller than q.
      rep_index = node.max_rep;
    } else {
      // Everything under this node is larger than q: step left.
      if (node.min_rep == 0) {
        // q is below every representative but >= keys_[0] (checked),
        // which is reps_[0]: impossible — keys_[0] == reps_[0] <= q.
        rep_index = 0;
      } else {
        rep_index = node.min_rep - 1;
      }
    }
  }
  // Final search inside the bucket (size <= key_bits).
  const size_t bucket_lo = rep_index * bucket_size_;
  const size_t bucket_hi =
      std::min(bucket_lo + bucket_size_, keys_.size());
  const auto it = std::upper_bound(keys_.begin() + bucket_lo,
                                   keys_.begin() + bucket_hi, q);
  IQS_DCHECK(it != keys_.begin() + bucket_lo);
  return static_cast<size_t>(it - keys_.begin()) - 1;
}

size_t StaticYFastIndex::MemoryBytes() const {
  size_t bytes = keys_.capacity() * sizeof(uint64_t) +
                 reps_.capacity() * sizeof(uint64_t);
  for (const auto& level : levels_) {
    bytes += level.size() *
             (sizeof(uint64_t) + sizeof(TrieNode) + 2 * sizeof(void*));
  }
  return bytes;
}

IntegerRangeSampler::IntegerRangeSampler(std::span<const uint64_t> keys,
                                         std::span<const double> weights,
                                         int key_bits)
    : keys_(keys.begin(), keys.end()), index_(keys, key_bits) {
  IQS_CHECK(keys.size() == weights.size());
  sampler_ = std::make_unique<ChunkedRangeSampler>(weights);
}

bool IntegerRangeSampler::ResolveInterval(uint64_t lo, uint64_t hi,
                                          size_t* a, size_t* b) const {
  if (lo > hi) return false;
  const auto hi_pred = index_.Predecessor(hi);
  if (!hi_pred.has_value()) return false;  // everything > hi
  *b = *hi_pred;
  if (lo == 0) {
    *a = 0;
  } else {
    const auto lo_pred = index_.Predecessor(lo - 1);
    *a = lo_pred.has_value() ? *lo_pred + 1 : 0;
  }
  return *a <= *b;
}

bool IntegerRangeSampler::Query(uint64_t lo, uint64_t hi, size_t s,
                                Rng* rng, std::vector<size_t>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveInterval(lo, hi, &a, &b)) return false;
  sampler_->QueryPositions(a, b, s, rng, out);
  return true;
}

void IntegerRangeSampler::QueryBatch(std::span<const IntegerBatchQuery> queries,
                                     Rng* rng, ScratchArena* arena,
                                     BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void IntegerRangeSampler::QueryBatch(std::span<const IntegerBatchQuery> queries,
                                     Rng* rng, ScratchArena* arena,
                                     const BatchOptions& opts,
                                     BatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);

  const std::span<PositionQuery> resolved = arena->Alloc<PositionQuery>(q);
  size_t total_samples = 0;
  for (size_t i = 0; i < q; ++i) {
    PositionQuery& pq = resolved[i];
    const bool ok = ResolveInterval(queries[i].lo, queries[i].hi, &pq.a, &pq.b);
    result->resolved[i] = ok ? 1 : 0;
    pq.s = ok ? queries[i].s : 0;
    result->offsets[i] = total_samples;
    total_samples += pq.s;
  }
  result->offsets[q] = total_samples;

  result->positions.clear();
  result->positions.reserve(total_samples);
  // The nested chunked sampler keeps the sink: it is the serving engine
  // here (this wrapper only resolves intervals), so its counters ARE this
  // batch's counters. The latency sample is still recorded once, here.
  sampler_->QueryPositionsBatch(resolved, rng, arena, opts,
                                &result->positions);
  IQS_CHECK(result->positions.size() == total_samples);
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

}  // namespace iqs
