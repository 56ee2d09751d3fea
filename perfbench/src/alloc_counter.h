// Process-wide heap-allocation count from the counting operator new in
// alloc_counter.cpp.
#pragma once

#include <cstdint>

namespace perfbench {

/// Number of operator new calls (every form) since process start.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace perfbench
