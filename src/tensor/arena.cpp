#include "tensor/arena.h"

#include <atomic>

namespace fedvr::tensor {

namespace {

// Relaxed is enough: readers only ever diff the counter around code they
// themselves ran (or after a pool join, which orders the accesses).
std::atomic<std::uint64_t> g_growths{0};

}  // namespace

std::span<double> scratch(AlignedVector<double>& buf, std::size_t n) {
  if (n > buf.size()) {
    buf = AlignedVector<double>();  // release the old storage first
    buf.resize(n);
    g_growths.fetch_add(1, std::memory_order_relaxed);
  }
  return {buf.data(), n};
}

std::uint64_t arena_heap_events() {
  return g_growths.load(std::memory_order_relaxed);
}

}  // namespace fedvr::tensor
