// The counter behind the allocation gates (`ctest -L alloc`):
// alloc_counter.cpp replaces the global operator new of the whole test
// binary with one that counts while counting is on.
#pragma once

#include <atomic>
#include <cstdint>

namespace fedpower::alloc_test {

extern std::atomic<bool> counting;
extern std::atomic<std::uint64_t> allocations;

/// Allocations counted so far.
inline std::uint64_t allocation_count() {
  return allocations.load(std::memory_order_relaxed);
}

/// Switches counting on or off (off at start).
inline void set_counting(bool on) {
  counting.store(on, std::memory_order_relaxed);
}

}  // namespace fedpower::alloc_test
