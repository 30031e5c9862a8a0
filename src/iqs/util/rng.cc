#include "iqs/util/rng.h"

namespace iqs {

namespace {

// SplitMix64 step, used only for seeding.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : s_) word = SplitMix64(&sm);
  // xoshiro256++ requires a nonzero state; SplitMix64 cannot produce four
  // zero outputs in a row, so no further fixup is needed.
}

uint64_t Rng::Below(uint64_t bound) {
  IQS_DCHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

Rng Rng::ForkStream(uint64_t stream_id) const {
  // Absorb the four parent state words and the stream id through the
  // SplitMix64 permutation (a bijective 64-bit mix per word, so distinct
  // ids cannot collapse to one child seed except by 64-bit chance).
  uint64_t acc = 0x6a09e667f3bcc909ULL ^ stream_id;  // frac(sqrt(2)) bits
  for (const uint64_t word : s_) {
    uint64_t sm = acc ^ word;
    acc = SplitMix64(&sm);
  }
  uint64_t sm = acc ^ (stream_id * 0x9e3779b97f4a7c15ULL);
  Rng child(SplitMix64(&sm));
  // One long-jump pushes the child 2^192 steps out, so even a child whose
  // seed lands near the parent's sequence cannot overlap it within any
  // realistic draw count.
  child.LongJumpByTable();
  return child;
}

void Rng::LongJump() {
  // xoshiro256++ LONG_JUMP polynomial (Blackman & Vigna).
  static constexpr uint64_t kLongJump[4] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  for (const uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if ((jump & (uint64_t{1} << b)) != 0) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      Next64();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

const Rng::JumpImage* Rng::LongJumpTable() {
  // The jump is GF(2)-linear in the state, so it distributes over XOR:
  // jump(s) = XOR over the 64 nibbles of s of jump(that nibble alone).
  // Entry 16 * i + v is the jump of the state whose nibble i is v and
  // whose other bits are 0, nibble i being bits [4(i % 16), 4(i % 16) + 4)
  // of word i / 16. Built once, on first use, from the 256 single-bit
  // images (~65k xoshiro steps).
  static const std::array<JumpImage, 64 * 16> table = [] {
    std::array<JumpImage, 256> bit_image{};
    for (int bit = 0; bit < 256; ++bit) {
      Rng unit;
      unit.s_[0] = unit.s_[1] = unit.s_[2] = unit.s_[3] = 0;
      unit.s_[bit / 64] = uint64_t{1} << (bit % 64);
      unit.LongJump();
      for (int w = 0; w < 4; ++w) bit_image[bit][w] = unit.s_[w];
    }
    std::array<JumpImage, 64 * 16> images{};
    for (int i = 0; i < 64; ++i) {
      for (int v = 1; v < 16; ++v) {
        for (int b = 0; b < 4; ++b) {
          if ((v >> b & 1) == 0) continue;
          for (int w = 0; w < 4; ++w) {
            images[16 * i + v][w] ^= bit_image[4 * i + b][w];
          }
        }
      }
    }
    return images;
  }();
  return table.data();
}

void Rng::LongJumpByTable() {
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  const JumpImage* images = LongJumpTable();
  for (const uint64_t word : s_) {
    for (int shift = 0; shift < 64; shift += 4, images += 16) {
      const JumpImage& image = images[(word >> shift) & 0xf];
      s0 ^= image[0];
      s1 ^= image[1];
      s2 ^= image[2];
      s3 ^= image[3];
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Rng::FillDoubles(std::span<double> out) {
  // Keep the four state words in locals for the whole block; the member
  // loop in NextDouble() forces a load/store per draw.
  uint64_t s0 = s_[0];
  uint64_t s1 = s_[1];
  uint64_t s2 = s_[2];
  uint64_t s3 = s_[3];
  for (double& d : out) {
    const uint64_t result = Rotl(s0 + s3, 23) + s0;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    d = static_cast<double>(result >> 11) * 0x1.0p-53;
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Rng::FillBelow(uint64_t bound, std::span<uint64_t> out) {
  IQS_DCHECK(bound > 0);
  // Lemire fast path first: one multiply per element, no branch taken in
  // the overwhelmingly common case; rejected lanes are patched after.
  const uint64_t threshold = -bound % bound;
  for (uint64_t& v : out) {
    const __uint128_t m = static_cast<__uint128_t>(Next64()) * bound;
    v = static_cast<uint64_t>(m >> 64);
    if (static_cast<uint64_t>(m) < threshold) {
      // Rare rejection (probability threshold / 2^64): redraw in place.
      v = Below(bound);
    }
  }
}

}  // namespace iqs
