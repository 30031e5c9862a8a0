#include "iqs/alias/quantized_alias.h"

#include <cmath>
#include <limits>

#include "iqs/util/check.h"

namespace iqs {

void QuantizedAlias::Build(std::span<const double> weights) {
  const size_t n = weights.size();
  IQS_CHECK(n > 0);
  IQS_CHECK(n <= std::numeric_limits<uint32_t>::max());

  double total = 0.0;
  for (double w : weights) {
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(w >= 0.0);
    total += w;
  }
  IQS_CHECK(total > 0.0);

  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;

  // Textbook Vose layout: urn i's primary is element i.
  std::vector<double> prob(n, 1.0);
  std::vector<uint32_t> alias(n);
  for (size_t i = 0; i < n; ++i) alias[i] = static_cast<uint32_t>(i);

  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers keep prob 1.0 / alias self.

  prob_q16_.resize(n);
  alias_.assign(alias.begin(), alias.end());
  for (size_t i = 0; i < n; ++i) {
    const double q = std::round(prob[i] * 65536.0);
    prob_q16_[i] = static_cast<uint16_t>(
        std::min(q, 65535.0));  // 1.0 saturates; the residual goes to alias,
                                // which is self for full urns.
  }
}

void QuantizedAlias::SampleMany(size_t count, Rng* rng,
                                std::vector<size_t>* out) const {
  const size_t base = out->size();
  out->resize(base + count);
  SampleBlock(rng, 0, std::span<size_t>(*out).subspan(base));
}

void QuantizedAlias::SampleBlock(Rng* rng, size_t base,
                                 std::span<size_t> out) const {
  IQS_DCHECK(!alias_.empty());
  for (size_t& v : out) v = base + Sample(rng);
}

double QuantizedAlias::AssignedProbability(size_t i) const {
  IQS_CHECK(i < alias_.size());
  const double n = static_cast<double>(alias_.size());
  double p = static_cast<double>(prob_q16_[i]) / 65536.0 / n;
  for (size_t u = 0; u < alias_.size(); ++u) {
    if (alias_[u] == i && u != i) {
      p += (1.0 - static_cast<double>(prob_q16_[u]) / 65536.0) / n;
    }
    if (u == i && alias_[u] == i) {
      // Self-alias: the residual mass also lands on i.
      p += (1.0 - static_cast<double>(prob_q16_[u]) / 65536.0) / n;
    }
  }
  return p;
}

}  // namespace iqs
