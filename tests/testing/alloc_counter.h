// Process-wide heap-allocation count from the counting operator new in
// alloc_counter.cpp. Link the fedvr_alloc_counter object library into a
// binary of its own: it replaces the global operator new / delete for the
// whole process.
#pragma once

#include <cstdint>

namespace fedvr::testing {

/// Number of operator new calls (every form) since process start.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace fedvr::testing
