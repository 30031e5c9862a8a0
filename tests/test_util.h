// Shared helpers for libiqs tests: distribution assertions built on the
// chi-square machinery in iqs/util/stats.h.

#ifndef IQS_TESTS_TEST_UTIL_H_
#define IQS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/stats.h"

namespace iqs::testing {

// Normalizes weights into probabilities.
inline std::vector<double> Normalize(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<double> probs(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) probs[i] = weights[i] / total;
  return probs;
}

// Asserts the empirical counts are consistent with `probs` at significance
// alpha (default 1e-6: with seeded RNGs the tests are deterministic, so a
// pass/fail boundary this deep keeps both false alarms and real regressions
// unambiguous).
inline void ExpectDistributionClose(const std::vector<uint64_t>& counts,
                                    const std::vector<double>& probs,
                                    double alpha = 1e-6) {
  const ChiSquareResult result = ChiSquareGoodnessOfFit(counts, probs);
  EXPECT_GT(result.p_value, alpha)
      << "chi-square stat " << result.statistic << " with "
      << result.degrees_of_freedom << " dof";
}

// Convenience: tally + normalize + chi-square in one call.
inline void ExpectSamplesMatchWeights(const std::vector<size_t>& samples,
                                      const std::vector<double>& weights,
                                      double alpha = 1e-6) {
  std::vector<uint64_t> counts(weights.size(), 0);
  for (size_t v : samples) {
    ASSERT_LT(v, weights.size()) << "sample out of range";
    ++counts[v];
  }
  ExpectDistributionClose(counts, Normalize(weights), alpha);
}

// FNV-1a over little-endian words — the golden-hash scheme used to pin
// byte-identity of fixed-seed output across refactors.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void U64(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void F64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    U64(bits);
  }
};

}  // namespace iqs::testing

#endif  // IQS_TESTS_TEST_UTIL_H_
