// Heap-allocation counting through the benchmark binary's own global
// operator new replacement (alloc_count.cpp). Counting is off unless a
// traced run switches it on around a measured call.
#pragma once

#include <cstdint>

namespace fedbench {

void set_alloc_counting(bool on);
/// Allocations counted since the process started (while counting was on).
std::uint64_t alloc_count();

}  // namespace fedbench
