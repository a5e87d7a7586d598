// Replacement global operator new/delete for this binary: every allocation
// is forwarded to malloc/free, and counted (calls and bytes) while counting
// is on. Counting is switched on only for the traced phase of a traced run;
// otherwise the cost is one relaxed load per allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace pb::alloc {

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  note(n);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t count() { return g_count.load(std::memory_order_relaxed); }
std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace pb::alloc

void* operator new(std::size_t n) { return pb::alloc::allocate(n); }
void* operator new[](std::size_t n) { return pb::alloc::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::alloc::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::alloc::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return pb::alloc::allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return pb::alloc::allocate_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
