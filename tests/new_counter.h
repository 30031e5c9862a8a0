// Counts calls to the global operator new, for tests asserting that a
// steady-state path never touches the heap. Replaces the global
// allocation functions, so include it in exactly ONE translation unit of
// a test binary. Counts allocations from every thread.

#ifndef IQS_TESTS_NEW_COUNTER_H_
#define IQS_TESTS_NEW_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace iqs::testing {

inline std::atomic<uint64_t> g_new_calls{0};

// Global operator new calls so far, across all threads.
inline uint64_t NewCalls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

}  // namespace iqs::testing

// All out of line so the compiler never pairs an inlined malloc()/free()
// with a new- or delete-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  iqs::testing::g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // IQS_TESTS_NEW_COUNTER_H_
