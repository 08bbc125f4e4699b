#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace fedbench {
namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* allocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed))
    allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (counting.load(std::memory_order_relaxed))
    allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void set_alloc_counting(bool on) {
  counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  return allocations.load(std::memory_order_relaxed);
}

}  // namespace fedbench

void* operator new(std::size_t size) { return fedbench::allocate(size); }
void* operator new[](std::size_t size) { return fedbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return fedbench::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return fedbench::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return fedbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return fedbench::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
