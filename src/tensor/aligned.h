// Cache-line-aligned storage for the buffers the kernels stream.
//
// glibc's malloc aligns to 16 bytes, so a std::vector<double> starts
// anywhere in a 64-byte line, and the AVX-512 dot and GEMM tiles then read
// every operand row as vectors that straddle two lines. AlignedVector
// starts element 0 on a line. The kernels still take any span, and no
// kernel's arithmetic depends on where a row starts, so alignment moves
// time, never bits (DESIGN.md §15 has the contract and the measurements).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace fedvr::tensor {

/// One x86 cache line, and one AVX-512 vector, the widest load any kernel
/// variant issues.
inline constexpr std::size_t kCacheLine = 64;

/// Hands out whole cache lines through std::allocator of an alignas(64)
/// line, that is, through the aligned global operator new, so a counting
/// operator new sees every allocation.
template <typename T>
class LineAllocator {
 public:
  using value_type = T;

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(static_cast<void*>(Lines().allocate(lines(n))));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    Lines().deallocate(static_cast<Line*>(static_cast<void*>(p)), lines(n));
  }

  friend bool operator==(const LineAllocator& /*a*/,
                         const LineAllocator& /*b*/) noexcept {
    return true;
  }

 private:
  struct alignas(kCacheLine) Line {
    std::byte bytes[kCacheLine];
  };
  using Lines = std::allocator<Line>;
  static_assert(alignof(T) <= kCacheLine);

  // std::vector keeps n <= max_size(), so n * sizeof(T) cannot overflow.
  static std::size_t lines(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return bytes / kCacheLine + (bytes % kCacheLine != 0 ? 1 : 0);
  }
};

/// A std::vector whose storage starts on a cache line.
template <typename T>
using AlignedVector = std::vector<T, LineAllocator<T>>;

}  // namespace fedvr::tensor
