// Process-wide heap-allocation count and volume from the counting operator
// new in
// alloc_counter.cpp. Link the fedvr_alloc_counter object library into a
// binary of its own: it replaces the global operator new / delete for the
// whole process.
#pragma once

#include <cstdint>

namespace fedvr::testing {

/// Number of operator new calls (every form) since process start.
[[nodiscard]] std::uint64_t heap_allocations();

/// Bytes requested through operator new (every form) since process start.
/// Frees are not subtracted: this is allocation volume, not live heap.
[[nodiscard]] std::uint64_t heap_bytes();

}  // namespace fedvr::testing
