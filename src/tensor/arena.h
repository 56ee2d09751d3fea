// Preallocated bump-allocator scratch for the kernel / solver hot paths.
//
// An Arena owns one cache-line-aligned slab; a Workspace is an RAII scope
// that hands out spans by bumping the arena cursor and rewinds it on
// destruction. Scopes nest LIFO (a conv backward scope opens nested GEMM
// scopes on the same per-thread arena), so steady-state inner loops touch
// the allocator only by moving a cursor — zero heap traffic. Requests that
// do not fit the slab still succeed through individually heap-allocated
// overflow blocks; the arena then regrows at the end of the outermost scope
// (when no spans are live) so the *next* episode runs allocation-free.
// Every heap acquisition — initial slab, regrow, trim, overflow block — is
// counted in a process-wide stat (arena_heap_events()) that benchmarks and
// tests assert stays flat across steady-state rounds.
//
// Determinism: arenas hand back raw storage; every consumer fully overwrites
// what it reads (or uses alloc_zeroed), so buffer placement cannot leak into
// results. The FP story is unchanged by construction — callers run the same
// arithmetic on differently-owned memory.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "tensor/aligned.h"

namespace fedvr::tensor {

class Workspace;

class Arena {
 public:
  /// Every span handed out starts on a cache line.
  static constexpr std::size_t kAlignment = kCacheLine;

  /// `trim_bytes` caps long-term slab retention: when > 0 and an episode
  /// (outermost scope) finishes having used no more than the cap while the
  /// slab had grown beyond it, the slab shrinks back — one outlier shape
  /// must not pin memory forever (scratch_arena() passes
  /// kScratchCapDoubles, see kernels.h).
  explicit Arena(std::size_t capacity_bytes = 0, std::size_t trim_bytes = 0);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] std::size_t capacity_bytes() const { return slab_.size(); }
  [[nodiscard]] std::size_t used_bytes() const { return cursor_; }
  [[nodiscard]] bool in_scope() const { return depth_ > 0; }

  struct Stats {
    std::uint64_t span_allocs = 0;     // Workspace::alloc calls served
    std::uint64_t heap_events = 0;     // slab (re)allocations + overflows
    std::uint64_t overflow_allocs = 0; // requests that missed the slab
    std::size_t high_water_bytes = 0;  // peak bytes live at once, ever
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Manually applies the end-of-episode policy (regrow after overflow,
  /// trim oversized slabs). Only legal outside any Workspace; Workspace
  /// destructors call this automatically at outermost-scope exit.
  void reset();

 private:
  friend class Workspace;

  std::byte* raw_alloc(std::size_t bytes);
  void end_episode();
  void replace_slab(std::size_t new_capacity);

  AlignedVector<std::byte> slab_;
  std::size_t cursor_ = 0;
  std::size_t trim_ = 0;
  std::size_t depth_ = 0;
  std::size_t episode_peak_ = 0;   // cursor + overflow high water, episode
  std::size_t overflow_bytes_ = 0; // live overflow bytes this episode
  std::vector<AlignedVector<std::byte>> overflow_;
  Stats stats_;
};

/// RAII allocation scope over an Arena. All spans obtained from a Workspace
/// die when it does; scopes on one arena must nest LIFO (guaranteed by
/// construction for per-thread arenas — the pool's nested-inline execution
/// keeps every scope on the thread that opened it).
class Workspace {
 public:
  explicit Workspace(Arena& arena);
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Uninitialized storage for `count` elements of a trivial type. The
  /// caller must fully overwrite before reading (determinism: results must
  /// never depend on what a previous scope left behind).
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_default_constructible_v<T>,
                  "arena spans are raw storage");
    static_assert(alignof(T) <= Arena::kAlignment);
    std::byte* p = arena_.raw_alloc(count * sizeof(T));
    return {reinterpret_cast<T*>(p), count};
  }

  /// Like alloc(), but zero-filled — for accumulator buffers.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_zeroed(std::size_t count) {
    auto s = alloc<T>(count);
    std::fill(s.begin(), s.end(), T{});
    return s;
  }

 private:
  Arena& arena_;
  std::size_t saved_cursor_;
  std::size_t saved_overflow_count_;
  std::size_t saved_overflow_bytes_;
};

/// The calling thread's scratch arena: the unified home of all transient
/// kernel scratch (GEMM pack buffers, im2col columns, conv partials).
/// Trimmed back to kScratchCapDoubles * sizeof(double) per the policy in
/// kernels.h.
Arena& scratch_arena();

/// Process-wide count of heap acquisitions made by all arenas (slab
/// allocations, regrows, trims, overflow blocks). Steady-state hot loops
/// must leave this flat; bench/micro_rounds reports its per-round delta and
/// tests assert it is zero after warm-up.
std::uint64_t arena_heap_events();

}  // namespace fedvr::tensor
