#include "iqs/alias/alias_table.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "iqs/simd/dispatch.h"
#include "iqs/simd/kernels.h"
#include "iqs/util/check.h"

namespace iqs {

void AliasTable::Build(std::span<const double> weights) {
  const size_t n = weights.size();
  IQS_CHECK(n > 0);
  IQS_CHECK(n <= std::numeric_limits<uint32_t>::max());

  total_weight_ = 0.0;
  for (double w : weights) {
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(w >= 0.0);
    total_weight_ += w;
  }
  // One check after the loop: an infinite weight, or finite weights whose
  // sum overflows, leaves a non-finite total that would skew every urn.
  IQS_CHECK(std::isfinite(total_weight_) && total_weight_ > 0.0);

  // Scaled weights: p_i = w_i * n / W, so the average is exactly 1 and each
  // urn receives total mass 1.
  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total_weight_;
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;

  // Vose's two-stack construction: repeatedly pair an under-full index
  // (mass < 1) with an over-full one, finalizing one urn per step.
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  urns_.assign(n, Urn{});
  size_t filled = 0;
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    urns_[filled++] = Urn{scaled[s], s, l};
    scaled[l] -= 1.0 - scaled[s];
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers have mass ~1 (up to floating-point rounding): single-element
  // urns that always return their primary.
  for (uint32_t l : large) urns_[filled++] = Urn{1.0, l, l};
  for (uint32_t s : small) urns_[filled++] = Urn{1.0, s, s};
  IQS_CHECK(filled == n);
}

void AliasTable::SampleMany(size_t count, Rng* rng,
                            std::vector<size_t>* out) const {
  const size_t base = out->size();
  out->resize(base + count);
  SampleBlock(rng, 0, std::span<size_t>(*out).subspan(base));
}

void AliasTable::SampleBlock(Rng* rng, size_t base,
                             std::span<size_t> out) const {
  IQS_DCHECK(!urns_.empty());
  // The SIMD kernels gather from urns_ as raw bytes; pin the layout they
  // assume (simd/kernels.h).
  static_assert(sizeof(Urn) == simd::kUrnStride);
  static_assert(offsetof(Urn, primary_prob) == simd::kUrnProbOffset);
  static_assert(offsetof(Urn, primary) == simd::kUrnPrimaryOffset);
  static_assert(offsetof(Urn, alias) == simd::kUrnAliasOffset);
#if IQS_SIMD_HAVE_AVX2 || IQS_SIMD_HAVE_NEON
  if (out.size() >= simd::kAliasDispatchMin) {
    const simd::Backend backend = simd::ActiveBackend();
#if IQS_SIMD_HAVE_AVX2
    if (backend == simd::Backend::kAvx2) {
      simd::AliasBlockAvx2(rng->Next64(), urns_.data(), urns_.size(), base,
                           out);
      return;
    }
#endif
#if IQS_SIMD_HAVE_NEON
    if (backend == simd::Backend::kNeon) {
      simd::AliasBlockNeon(rng->Next64(), urns_.data(), urns_.size(), base,
                           out);
      return;
    }
#endif
  }
#endif
  constexpr size_t kBlock = 256;
  uint64_t urn_idx[kBlock];
  double coin[kBlock];
  const Urn* urns = urns_.data();
  constexpr size_t kPrefetchDistance = 16;
  for (size_t done = 0; done < out.size();) {
    const size_t m = std::min(out.size() - done, kBlock);
    rng->FillBelow(urns_.size(), std::span<uint64_t>(urn_idx, m));
    rng->FillDoubles(std::span<double>(coin, m));
    const size_t lead = std::min(m, kPrefetchDistance);
    for (size_t j = 0; j < lead; ++j) __builtin_prefetch(&urns[urn_idx[j]]);
    for (size_t j = 0; j < m; ++j) {
      if (j + kPrefetchDistance < m) {
        __builtin_prefetch(&urns[urn_idx[j + kPrefetchDistance]]);
      }
      const Urn& u = urns[urn_idx[j]];
      out[done + j] = base + (coin[j] < u.primary_prob ? u.primary : u.alias);
    }
    done += m;
  }
}

void AliasTable::SampleTargets(std::span<const AliasTable* const> tables,
                               std::span<const size_t> bases, Rng* rng,
                               std::span<size_t> out) {
  IQS_DCHECK(tables.size() == out.size());
  IQS_DCHECK(bases.size() == out.size());
  constexpr size_t kBlock = 256;
#if IQS_SIMD_HAVE_AVX2 || IQS_SIMD_HAVE_NEON
  if (out.size() >= simd::kAliasDispatchMin) {
    const simd::Backend backend = simd::ActiveBackend();
    if (backend != simd::Backend::kScalar) {
      // Lower each block's tables to raw (urn array, bound) pairs for the
      // gather kernel; one Rng word per block seeds its lanes.
      const void* urn_ptrs[kBlock];
      uint64_t bounds[kBlock];
      for (size_t start = 0; start < out.size(); start += kBlock) {
        const size_t m = std::min(kBlock, out.size() - start);
        for (size_t i = 0; i < m; ++i) {
          const AliasTable* table = tables[start + i];
          urn_ptrs[i] =
              table == nullptr
                  ? nullptr
                  : static_cast<const void*>(table->urns_.data());
          bounds[i] = table == nullptr ? 1 : table->urns_.size();
        }
        const std::span<size_t> dst = out.subspan(start, m);
#if IQS_SIMD_HAVE_AVX2
        if (backend == simd::Backend::kAvx2) {
          simd::AliasTargetsAvx2(rng->Next64(), urn_ptrs, bounds,
                                 bases.data() + start, dst);
          continue;
        }
#endif
#if IQS_SIMD_HAVE_NEON
        if (backend == simd::Backend::kNeon) {
          simd::AliasTargetsNeon(rng->Next64(), urn_ptrs, bounds,
                                 bases.data() + start, dst);
          continue;
        }
#endif
      }
      return;
    }
  }
#endif
  // Scalar reference: byte-identical randomness consumption to the
  // historical blocked cover loops — a block of coins, then one urn pick
  // (with prefetch) per non-null draw, then the resolve pass.
  uint64_t urn_idx[kBlock];
  double coins[kBlock];
  for (size_t start = 0; start < out.size(); start += kBlock) {
    const size_t m = std::min(kBlock, out.size() - start);
    rng->FillDoubles(std::span<double>(coins, m));
    for (size_t i = 0; i < m; ++i) {
      const AliasTable* table = tables[start + i];
      if (table == nullptr) continue;
      urn_idx[i] = rng->Below(table->size());
      table->PrefetchUrn(urn_idx[i]);
    }
    for (size_t i = 0; i < m; ++i) {
      const AliasTable* table = tables[start + i];
      out[start + i] =
          bases[start + i] +
          (table == nullptr ? 0 : table->SampleAt(urn_idx[i], coins[i]));
    }
  }
}

}  // namespace iqs
