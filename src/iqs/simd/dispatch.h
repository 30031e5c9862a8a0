// The kernel backend name, kept only for the benchmark harness.
//
// libiqs has one kernel backend: the portable scalar loops of
// Rng::FillDoubles / FillBelow, AliasTable::SampleBlock / SampleTargets,
// QuantizedAlias::SampleBlock and StaticBst::DescendToLeaves. So every
// host serves one byte stream per seed, the stream the golden tests pin
// (DESIGN.md §2.6). perfbench still reports these names in its host and
// sink records; a later benchmark change can drop them, and this header
// with them.

#ifndef IQS_SIMD_DISPATCH_H_
#define IQS_SIMD_DISPATCH_H_

#include <cstdint>
#include <string_view>

namespace iqs::simd {

enum class Backend : uint8_t {
  kScalar = 0,
};

inline Backend ActiveBackend() { return Backend::kScalar; }

inline std::string_view BackendName(Backend) { return "scalar"; }

// Every batch runs the scalar kernels, whatever QueryStats::backend_mask
// holds.
inline std::string_view BackendMaskName(uint64_t) { return "scalar"; }

}  // namespace iqs::simd

#endif  // IQS_SIMD_DISPATCH_H_
