#include "alloc/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace fedpower::alloc_test {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

}  // namespace fedpower::alloc_test

namespace {

void* counted_allocate(std::size_t size) {
  using namespace fedpower::alloc_test;
  if (counting.load(std::memory_order_relaxed))
    allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
