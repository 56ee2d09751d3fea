// Per-thread kernel scratch.
//
// Each kernel keeps its transient buffers (GEMM packs, im2col columns, conv
// partials, bias sums) in named `thread_local AlignedVector<double>`s and
// takes the storage it needs through scratch(). A buffer grows only when a
// request exceeds every earlier one and never shrinks, so once a thread has
// met its largest shapes its kernels make no heap allocation: the idiom of
// opt::thread_workspace(), nn's eval scratch and nn::identity_indices.
//
// Why one buffer per site and thread is enough: one thread never runs two
// calls of one kernel at once. A fan-out's caller waits without running any
// chunk, a fan-out from a pool worker (or of one chunk) runs inline, one
// chunk after another, and no kernel calls back into a kernel that holds
// the same buffer. A buffer's contents are scratch: every caller writes
// what it reads (or zero-fills it) before reading, so no result depends on
// what an earlier call left behind or on which thread ran it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/aligned.h"

namespace fedvr::tensor {

/// The first n elements of `buf`, a buffer the calling thread keeps. `buf`
/// grows to exactly n elements, dropping its contents, only when n exceeds
/// every earlier request, and it never shrinks. The span starts on a cache
/// line.
[[nodiscard]] std::span<double> scratch(AlignedVector<double>& buf,
                                        std::size_t n);

/// Process-wide count of scratch() growths, every thread and site
/// together. Warm hot loops leave it flat; perfbench reports its per-round
/// delta.
std::uint64_t arena_heap_events();

}  // namespace fedvr::tensor
