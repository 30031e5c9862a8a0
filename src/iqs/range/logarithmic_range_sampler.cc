#include "iqs/range/logarithmic_range_sampler.h"

#include <cmath>

#include "iqs/cover/cover_enumeration.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

namespace iqs {

LogarithmicRangeSampler::LogarithmicRangeSampler()
    : versions_(std::make_unique<Version>()) {}

LogarithmicRangeSampler::~LogarithmicRangeSampler() {
  // Readers must be gone (checked by ~EpochManager). Drain frees every
  // retired component/version; the live version's components are then
  // exclusively ours.
  EpochManager* epoch = versions_.epoch_manager();
  epoch->Drain();
  for (const Component* component : versions_.writer_root()->components) {
    delete component;
  }
}

void LogarithmicRangeSampler::Finalize(Component* component,
                                       ThreadPool* pool) {
  const size_t m = component->keys.size();
  component->weight_prefix.assign(m + 1, 0.0);
  for (size_t i = 0; i < m; ++i) {
    component->weight_prefix[i + 1] =
        component->weight_prefix[i] + component->weights[i];
  }
  component->sampler = std::make_unique<ChunkedRangeSampler>(
      component->keys, component->weights, /*chunk_size=*/0, pool);
}

void LogarithmicRangeSampler::Insert(double key, double weight) {
  IQS_CHECK(std::isfinite(key));
  IQS_CHECK(std::isfinite(weight) && weight > 0.0);
  MutexLock lock(&writer_mu_);
  const uint64_t start_ns = sink_ != nullptr ? TelemetryNowNs() : 0;

  // Build the next version privately: start from the current component
  // list (shared pointers — unconsumed components carry over), run the
  // binary-addition carry merge on it, and remember which resident
  // components the carry consumed.
  const Version* cur = versions_.writer_root();
  auto next = std::make_unique<Version>();
  next->components = cur->components;
  next->size = cur->size + 1;
  std::vector<const Component*> consumed;

  // A carry component of size 2^level, merged upward like binary addition.
  auto carry = std::make_unique<Component>();
  carry->keys = {key};
  carry->weights = {weight};
  size_t level = 0;
  while (true) {
    if (level == next->components.size()) next->components.push_back(nullptr);
    if (next->components[level] == nullptr) {
      Finalize(carry.get(), pool_);
      next->components[level] = carry.release();
      break;
    }
    // Merge the resident component into the carry (both sorted).
    const Component& resident = *next->components[level];
    auto merged = std::make_unique<Component>();
    const size_t total = resident.keys.size() + carry->keys.size();
    merged->keys.reserve(total);
    merged->weights.reserve(total);
    size_t i = 0;
    size_t j = 0;
    while (i < resident.keys.size() || j < carry->keys.size()) {
      const bool take_resident =
          j == carry->keys.size() ||
          (i < resident.keys.size() && resident.keys[i] < carry->keys[j]);
      if (take_resident) {
        merged->keys.push_back(resident.keys[i]);
        merged->weights.push_back(resident.weights[i]);
        ++i;
      } else {
        IQS_DCHECK(i == resident.keys.size() ||
                  resident.keys[i] > carry->keys[j]);  // distinct keys
        merged->keys.push_back(carry->keys[j]);
        merged->weights.push_back(carry->weights[j]);
        ++j;
      }
    }
    consumed.push_back(next->components[level]);
    next->components[level] = nullptr;
    carry = std::move(merged);
    ++level;
  }

  // Publish, then retire what the merge consumed. Ordering matters: a
  // component may be retired only once no reader can REACH it from the
  // root, which the root swap inside Publish establishes. In-flight
  // snapshots can still HOLD it — that is exactly what the grace period
  // covers.
  EpochManager* epoch = versions_.epoch_manager();
  versions_.Publish(std::move(next), pool_);
  for (const Component* component : consumed) {
    epoch->Retire(
        const_cast<void*>(static_cast<const void*>(component)),
        [](void* p) { delete static_cast<const Component*>(p); });
  }
  if (!consumed.empty()) epoch->Reclaim(pool_);

  if (sink_ != nullptr) {
    // Serialized writer path; shard 0 of the structure's own sink.
    QueryStats* stats = &sink_->shard(0)->stats;
    stats->versions_published += 1;
    const uint64_t reclaimed = epoch->reclaimed();
    stats->versions_reclaimed += reclaimed - last_reclaimed_;
    last_reclaimed_ = reclaimed;
    const uint64_t pins = epoch->reader_pins();
    stats->reader_pins += pins - last_pins_;
    last_pins_ = pins;
    stats->rebuild_ns += TelemetryNowNs() - start_ns;
  }
}

bool LogarithmicRangeSampler::Query(double lo, double hi, size_t s, Rng* rng,
                                    std::vector<double>* out) const {
  const Snapshot<Version> snap = versions_.Acquire();
  if (!(lo <= hi) || snap->size == 0) return false;
  // Resolve the interval in every component; collect range weights.
  struct ActivePart {
    const Component* component;
    size_t a;
    size_t b;
  };
  std::vector<ActivePart> parts;
  std::vector<double> part_weights;
  for (const Component* component : snap->components) {
    if (component == nullptr) continue;
    size_t a = 0;
    size_t b = 0;
    if (!component->sampler->ResolveInterval(lo, hi, &a, &b)) continue;
    parts.push_back({component, a, b});
    part_weights.push_back(component->weight_prefix[b + 1] -
                           component->weight_prefix[a]);
  }
  if (parts.empty()) return false;
  if (s == 0) return true;

  const std::vector<uint32_t> counts = MultinomialSplit(part_weights, s, rng);
  out->reserve(out->size() + s);
  std::vector<size_t> positions;
  for (size_t p = 0; p < parts.size(); ++p) {
    if (counts[p] == 0) continue;
    positions.clear();
    parts[p].component->sampler->QueryPositions(parts[p].a, parts[p].b,
                                                counts[p], rng, &positions);
    for (size_t pos : positions) {
      out->push_back(parts[p].component->keys[pos]);
    }
  }
  return true;
}

void LogarithmicRangeSampler::QueryBatch(std::span<const KeyBatchQuery> queries,
                                         Rng* rng, ScratchArena* arena,
                                         KeyBatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void LogarithmicRangeSampler::QueryBatch(std::span<const KeyBatchQuery> queries,
                                         Rng* rng, ScratchArena* arena,
                                         const BatchOptions& opts,
                                         KeyBatchResult* result) const {
  // One snapshot serves the whole batch: every query of the batch sees
  // the same component set no matter how many versions a concurrent
  // inserter publishes meanwhile.
  const Snapshot<Version> snap = versions_.Acquire();
  // Positions [lo, hi] of one component.
  struct Part {
    const Component* component;
    uint32_t level;  // index in Version::components
    size_t lo;
    size_t hi;
    double weight;
  };
  // No pool: the batch is served sequentially in every mode.
  ServePieceBatch<Part>(
      queries, /*pool=*/nullptr,
      [&snap](const KeyBatchQuery& query, std::vector<Part>* out) {
        if (!(query.lo <= query.hi)) return;
        for (size_t level = 0; level < snap->components.size(); ++level) {
          const Component* component = snap->components[level];
          if (component == nullptr) continue;
          size_t a = 0;
          size_t b = 0;
          if (!component->sampler->ResolveInterval(query.lo, query.hi, &a,
                                                   &b)) {
            continue;
          }
          out->push_back({component, static_cast<uint32_t>(level), a, b,
                          component->weight_prefix[b + 1] -
                              component->weight_prefix[a]});
        }
      },
      // One run per component, keyed by its Bentley-Saxe level: the same
      // ascending order the single-query path serves in, and (unlike the
      // component's address) independent of allocator history, so
      // fixed-seed batches stay reproducible across publish/reclaim
      // cycles.
      [](const Part& part) {
        return PieceRun<ChunkedRangeSampler>{part.level,
                                             part.component->sampler.get()};
      },
      [](const Part& part, std::span<const size_t> positions,
         std::span<double> dst) {
        for (size_t d = 0; d < dst.size(); ++d) {
          dst[d] = part.component->keys[positions[d]];
        }
      },
      rng, arena, opts, &result->resolved, &result->offsets, &result->keys);
}

double LogarithmicRangeSampler::RangeWeight(double lo, double hi) const {
  if (!(lo <= hi)) return 0.0;
  const Snapshot<Version> snap = versions_.Acquire();
  double total = 0.0;
  for (const Component* component : snap->components) {
    if (component == nullptr) continue;
    size_t a = 0;
    size_t b = 0;
    if (!component->sampler->ResolveInterval(lo, hi, &a, &b)) continue;
    total += component->weight_prefix[b + 1] - component->weight_prefix[a];
  }
  return total;
}

size_t LogarithmicRangeSampler::num_components() const {
  const Snapshot<Version> snap = versions_.Acquire();
  size_t count = 0;
  for (const Component* component : snap->components) {
    count += (component != nullptr);
  }
  return count;
}

size_t LogarithmicRangeSampler::MemoryBytes() const {
  const Snapshot<Version> snap = versions_.Acquire();
  size_t bytes = snap->components.capacity() * sizeof(const Component*);
  for (const Component* component : snap->components) {
    if (component == nullptr) continue;
    bytes += component->keys.capacity() * sizeof(double) +
             component->weights.capacity() * sizeof(double) +
             component->weight_prefix.capacity() * sizeof(double) +
             component->sampler->MemoryBytes();
  }
  return bytes;
}

}  // namespace iqs
