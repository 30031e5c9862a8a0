// Approximate IQS (paper Section 9, Direction 4): epsilon-uniform sampling
// that trades a bounded probability deviation for space.
//
// Definition (from the paper): epsilon-uniform sampling over a set of size
// n returns each element with probability in
// [1/((1+eps) n), 1/((1-eps) n)].
//
// QuantizedAlias is an alias table whose per-urn coin bias is quantized to
// 16 bits and whose urn primary index is implicit (urn i's primary is
// element i, as in the textbook Vose layout), shrinking an urn from
// 16 bytes (AliasTable) to 6 bytes. Quantizing the bias moves each
// element's probability by at most 2 * 2^-16 / n absolutely, so for
// uniform weights the result is epsilon-uniform with eps <= 2^-15, and for
// general weights every element with probability >= c/n has relative error
// <= 2^-15 * 2/c. bench_approx_iqs (E13) measures the space/error
// trade-off across quantization widths.

#ifndef IQS_ALIAS_QUANTIZED_ALIAS_H_
#define IQS_ALIAS_QUANTIZED_ALIAS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/util/rng.h"

namespace iqs {

class QuantizedAlias {
 public:
  QuantizedAlias() = default;
  explicit QuantizedAlias(std::span<const double> weights) { Build(weights); }

  // O(n) build, same urn construction as AliasTable but with the bias
  // rounded to a 16-bit fixed-point fraction.
  void Build(std::span<const double> weights);

  // Draws one independent sample in O(1): element i is returned with
  // probability within +/- 2*2^-16/n of w(i)/W.
  size_t Sample(Rng* rng) const {
    IQS_DCHECK(!alias_.empty());
    const size_t urn = static_cast<size_t>(rng->Below(alias_.size()));
    const uint16_t coin = static_cast<uint16_t>(rng->Next64() >> 48);
    return coin < prob_q16_[urn] ? urn : alias_[urn];
  }

  // Draws `count` independent samples, appending them to `out`.
  void SampleMany(size_t count, Rng* rng, std::vector<size_t>* out) const;

  // Block fast path: fills `out` with independent samples offset by
  // `base`, drawing through Sample() bit-for-bit.
  void SampleBlock(Rng* rng, size_t base, std::span<size_t> out) const;

  bool empty() const { return alias_.empty(); }
  size_t size() const { return alias_.size(); }

  // Exact probability this structure assigns to element i (for the error
  // measurements in tests and E13): computable from the quantized urns.
  double AssignedProbability(size_t i) const;

  size_t MemoryBytes() const {
    return prob_q16_.capacity() * sizeof(uint16_t) +
           alias_.capacity() * sizeof(uint32_t);
  }

 private:
  // Urn i returns i with probability prob_q16_[i] / 2^16, else alias_[i].
  std::vector<uint16_t> prob_q16_;
  std::vector<uint32_t> alias_;
};

}  // namespace iqs

#endif  // IQS_ALIAS_QUANTIZED_ALIAS_H_
