// Allocation counter: every throwing/sized/array operator new in the process
// funnels through here (these definitions replace the library's), so the
// delta of planetp::bench::allocations() across a timed window counts real
// heap allocations. Aligned variants keep their default definitions; plain
// delete always pairs with plain new, so free() is the right inverse.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/harness.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t planetp::bench::allocations() { return g_allocs.load(std::memory_order_relaxed); }
