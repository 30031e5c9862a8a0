#include "iqs/util/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>


namespace iqs {

void QueryStats::MergeFrom(const QueryStats& other) {
  queries += other.queries;
  samples_emitted += other.samples_emitted;
  rng_draws += other.rng_draws;
  nodes_visited += other.nodes_visited;
  cover_groups += other.cover_groups;
  rejection_attempts += other.rejection_attempts;
  rejection_rounds += other.rejection_rounds;
  arena_bytes_hwm = std::max(arena_bytes_hwm, other.arena_bytes_hwm);
  em_reads += other.em_reads;
  em_writes += other.em_writes;
  steals += other.steals;
  busy_ns += other.busy_ns;
  versions_published += other.versions_published;
  versions_reclaimed += other.versions_reclaimed;
  reader_pins += other.reader_pins;
  rebuild_ns += other.rebuild_ns;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

uint64_t LatencyHistogram::PercentileUpperBoundNs(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      // Exclusive upper bound of bucket b = lower bound of bucket b + 1;
      // the last bucket's bound saturates.
      return b + 1 < kNumBuckets ? BucketLowerBoundNs(b + 1) : ~uint64_t{0};
    }
  }
  return max_ns_;
}

QueryStats TelemetrySink::MergedStats() const {
  QueryStats merged;
  for (const TelemetryShard& shard : shards_) merged.MergeFrom(shard.stats);
  return merged;
}

LatencyHistogram TelemetrySink::MergedLatency() const {
  LatencyHistogram merged;
  for (const TelemetryShard& shard : shards_) merged.MergeFrom(shard.latency);
  return merged;
}

void TelemetrySink::Reset() {
  for (TelemetryShard& shard : shards_) shard = TelemetryShard{};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

TelemetrySink* MetricsRegistry::GetOrCreate(std::string_view name,
                                            size_t num_shards) {
  MutexLock lock(&mu_);
  for (auto& [sink_name, sink] : sinks_) {
    if (sink_name == name) return sink.get();
  }
  sinks_.emplace_back(std::string(name),
                      std::make_unique<TelemetrySink>(num_shards));
  return sinks_.back().second.get();
}

TelemetrySink* MetricsRegistry::Find(std::string_view name) {
  MutexLock lock(&mu_);
  for (auto& [sink_name, sink] : sinks_) {
    if (sink_name == name) return sink.get();
  }
  return nullptr;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, sink] : sinks_) sink->Reset();
}

namespace {

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  // Sized for the worst-case counters line: every uint64 at 20 digits.
  char buffer[2048];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) out->append(buffer, static_cast<size_t>(written));
}

void AppendCountersJson(std::string* out, const QueryStats& stats) {
  AppendF(out,
          "{\"queries\": %" PRIu64 ", \"samples_emitted\": %" PRIu64
          ", \"rng_draws\": %" PRIu64 ", \"nodes_visited\": %" PRIu64
          ", \"cover_groups\": %" PRIu64 ", \"rejection_attempts\": %" PRIu64
          ", \"rejection_rounds\": %" PRIu64 ", \"arena_bytes_hwm\": %" PRIu64
          ", \"em_reads\": %" PRIu64 ", \"em_writes\": %" PRIu64
          ", \"steals\": %" PRIu64 ", \"busy_ns\": %" PRIu64
          ", \"versions_published\": %" PRIu64
          ", \"versions_reclaimed\": %" PRIu64 ", \"reader_pins\": %" PRIu64
          ", \"rebuild_ns\": %" PRIu64 "}",
          stats.queries, stats.samples_emitted, stats.rng_draws,
          stats.nodes_visited, stats.cover_groups, stats.rejection_attempts,
          stats.rejection_rounds, stats.arena_bytes_hwm, stats.em_reads,
          stats.em_writes, stats.steals, stats.busy_ns,
          stats.versions_published, stats.versions_reclaimed,
          stats.reader_pins, stats.rebuild_ns);
}

void AppendLatencyJson(std::string* out, const LatencyHistogram& histogram) {
  AppendF(out,
          "{\"count\": %" PRIu64 ", \"sum_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64
          ", \"p50_ns\": %" PRIu64 ", \"p90_ns\": %" PRIu64
          ", \"p99_ns\": %" PRIu64 ", \"p999_ns\": %" PRIu64
          ", \"p9999_ns\": %" PRIu64 ", \"buckets\": [",
          histogram.count(), histogram.sum_ns(), histogram.max_ns(),
          histogram.PercentileUpperBoundNs(0.50),
          histogram.PercentileUpperBoundNs(0.90),
          histogram.PercentileUpperBoundNs(0.99),
          histogram.PercentileUpperBoundNs(0.999),
          histogram.PercentileUpperBoundNs(0.9999));
  // Nonzero buckets only, as [lower_bound_ns, count] pairs.
  bool first = true;
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    if (histogram.bucket(b) == 0) continue;
    AppendF(out, "%s[%" PRIu64 ", %" PRIu64 "]", first ? "" : ", ",
            LatencyHistogram::BucketLowerBoundNs(b), histogram.bucket(b));
    first = false;
  }
  out->append("]}");
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"telemetry\": {";
  bool first = true;
  for (const auto& [name, sink] : sinks_) {
    AppendF(&out, "%s\"%s\": {\"counters\": ", first ? "" : ", ",
            name.c_str());
    AppendCountersJson(&out, sink->MergedStats());
    out.append(", \"latency_ns\": ");
    AppendLatencyJson(&out, sink->MergedLatency());
    out.append("}");
    first = false;
  }
  out.append("}}");
  return out;
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, sink] : sinks_) {
    const QueryStats stats = sink->MergedStats();
    const LatencyHistogram latency = sink->MergedLatency();
    AppendF(&out,
            "%s: queries=%" PRIu64 " samples=%" PRIu64 " rng_draws=%" PRIu64
            " nodes=%" PRIu64 " groups=%" PRIu64 " rej_attempts=%" PRIu64
            " rej_rounds=%" PRIu64 " arena_hwm=%" PRIu64 " em_r=%" PRIu64
            " em_w=%" PRIu64 " steals=%" PRIu64 " busy_ns=%" PRIu64
            " published=%" PRIu64 " reclaimed=%" PRIu64 " pins=%" PRIu64
            " rebuild_ns=%" PRIu64 "\n",
            name.c_str(), stats.queries, stats.samples_emitted,
            stats.rng_draws, stats.nodes_visited, stats.cover_groups,
            stats.rejection_attempts, stats.rejection_rounds,
            stats.arena_bytes_hwm, stats.em_reads, stats.em_writes,
            stats.steals, stats.busy_ns, stats.versions_published,
            stats.versions_reclaimed, stats.reader_pins, stats.rebuild_ns);
    AppendF(&out,
            "%s: latency count=%" PRIu64 " mean_ns=%" PRIu64
            " p50<=%" PRIu64 " p90<=%" PRIu64 " p99<=%" PRIu64
            " p999<=%" PRIu64 " p9999<=%" PRIu64 " max=%" PRIu64 "\n",
            name.c_str(), latency.count(),
            latency.count() ? latency.sum_ns() / latency.count() : 0,
            latency.PercentileUpperBoundNs(0.50),
            latency.PercentileUpperBoundNs(0.90),
            latency.PercentileUpperBoundNs(0.99),
            latency.PercentileUpperBoundNs(0.999),
            latency.PercentileUpperBoundNs(0.9999), latency.max_ns());
  }
  return out;
}

}  // namespace iqs
