// Counting replacements for the global allocator, for tests that pin how
// often a code path allocates. Include this header in exactly one
// translation unit of a test binary: it defines the replaceable global
// operator new/delete, which count every allocation in the process into
// AllocationCount(). They forward to malloc / free, which keeps the
// sanitizer legs (ASan/TSan intercept at the malloc layer) and leak
// detection working unchanged.
#ifndef LRPDB_TESTS_COUNTING_NEW_H_
#define LRPDB_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace lrpdb_testing {

inline std::atomic<int64_t> g_allocations{0};

// Allocations made through operator new since the process started.
inline int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace lrpdb_testing

// Out of line, like the deletes below, so the compiler never pairs the
// malloc inside with a sized delete it sees (a -Wmismatched-new-delete
// false positive at -O3).
[[gnu::noinline]] void* operator new(std::size_t size) {
  lrpdb_testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  lrpdb_testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so the compiler never sees free() applied to a pointer it
// watched operator new return (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // LRPDB_TESTS_COUNTING_NEW_H_
