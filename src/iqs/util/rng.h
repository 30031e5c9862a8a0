// Fast, deterministic pseudo-random number generation.
//
// Every sampler in libiqs draws randomness from an explicitly passed
// iqs::Rng so that experiments are reproducible under seeding and so that
// independence across queries is exactly "fresh randomness per query".
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded via SplitMix64.
// It is not cryptographically secure; it is fast (<1ns/word) and passes
// BigCrush, which is what query-sampling workloads need.

#ifndef IQS_UTIL_RNG_H_
#define IQS_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <span>

#include "iqs/util/check.h"

namespace iqs {

// xoshiro256++ pseudo-random generator.
//
// Satisfies the UniformRandomBitGenerator concept, so it can also be used
// with <random> distributions when convenient.
class Rng {
 public:
  using result_type = uint64_t;

  // Seeds the state from `seed` via SplitMix64 so that any 64-bit seed
  // (including 0) yields a well-mixed state.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  // Returns the next 64 random bits.
  uint64_t Next64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  uint64_t operator()() { return Next64(); }

  // Returns a uniform integer in [0, bound). `bound` must be positive.
  // Uses Lemire's multiply-shift rejection method: unbiased, ~1 multiply.
  uint64_t Below(uint64_t bound);

  // Returns a uniform integer in [lo, hi] (both inclusive).
  int64_t Uniform(int64_t lo, int64_t hi) {
    IQS_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Returns a uniform double in [0, 1) with 53 random bits.
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  // Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Block primitives for batched sampling inner loops: filling a buffer in
  // one call keeps the xoshiro state in registers across iterations and
  // gives the compiler a vectorizable loop, where the per-call equivalents
  // reload state each draw. Element distributions are identical to
  // NextDouble() / Below() respectively.
  //
  // Large fills dispatch to the active SIMD backend (simd/dispatch.h):
  // the vector path consumes ONE word of this stream as a block seed and
  // expands it into independent lanes (simd/lanes.h), so it produces the
  // same per-element law but a DIFFERENT byte stream than the scalar
  // loop. Under the scalar backend (detection, IQS_FORCE_SCALAR, or
  // -DIQS_DISABLE_SIMD) the output is bit-stable: FillDoubles equals the
  // NextDouble() stream word for word, as rng_test pins.

  // Fills `out` with independent uniform doubles in [0, 1).
  void FillDoubles(std::span<double> out);

  // Fills `out` with independent uniform integers in [0, bound).
  // `bound` must be positive.
  void FillBelow(uint64_t bound, std::span<uint64_t> out);

  // Returns a generator seeded from this one's stream; useful for giving
  // each worker/structure an independent stream. ADVANCES this generator.
  Rng Split() { return Rng(Next64()); }

  // Returns the generator for substream `stream_id`, derived
  // deterministically from this generator's CURRENT state WITHOUT
  // advancing it: ForkStream is a pure function of (state, stream_id), so
  // forking the same id twice yields identical generators and the parent
  // sequence is untouched. Distinct ids give statistically independent
  // streams — the child state is SplitMix64-seeded from a mix of the
  // parent state and the id, then separated by one xoshiro256++ long-jump
  // (2^192 steps). This is the primitive behind deterministic parallel
  // batch serving: per-query substreams make the output a pure function
  // of (seed, query index), independent of thread count and sharding.
  Rng ForkStream(uint64_t stream_id) const;

  // Advances this generator by 2^192 steps of its sequence (the
  // xoshiro256++ LONG_JUMP polynomial), evaluated bit by bit: 256
  // dependent Next64 steps. The reference for LongJumpByTable.
  void LongJump();

  // The same jump — byte-identical result — applied as the fixed
  // GF(2)-linear map it is: the new state is the XOR of one precomputed
  // image per 4-bit window of the old state (64 windows x 16 values x 4
  // words, a 32 KB table built on first use). ForkStream uses it.
  void LongJumpByTable();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // LongJumpByTable's 64 x 16 precomputed images (see rng.cc).
  using JumpImage = std::array<uint64_t, 4>;
  static const JumpImage* LongJumpTable();

  uint64_t s_[4];
};

}  // namespace iqs

#endif  // IQS_UTIL_RNG_H_
