#include "tensor/arena.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "tensor/kernels.h"
#include "util/error.h"

namespace fedvr::tensor {

namespace {

// Relaxed is enough: readers only ever diff the counter around code they
// themselves ran (or after a pool join, which orders the accesses).
std::atomic<std::uint64_t> g_heap_events{0};

std::size_t round_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) / align * align;
}

}  // namespace

std::uint64_t arena_heap_events() {
  return g_heap_events.load(std::memory_order_relaxed);
}

Arena::Arena(std::size_t capacity_bytes, std::size_t trim_bytes)
    : trim_(trim_bytes) {
  if (capacity_bytes > 0) replace_slab(round_up(capacity_bytes, kAlignment));
}

Arena::~Arena() = default;

void Arena::replace_slab(std::size_t new_capacity) {
  // A replaced slab would dangle every live span; the scope discipline
  // guarantees none exist here.
  FEDVR_CHECK_MSG(cursor_ == 0 && depth_ == 0,
                  "arena slab replaced while spans are live");
  slab_ = AlignedVector<std::byte>();  // free the old slab first
  if (new_capacity > 0) {
    slab_ = AlignedVector<std::byte>(new_capacity);
    g_heap_events.fetch_add(1, std::memory_order_relaxed);
    ++stats_.heap_events;
  }
}

std::byte* Arena::raw_alloc(std::size_t bytes) {
  FEDVR_CHECK_MSG(depth_ > 0, "arena allocation outside any Workspace scope");
  ++stats_.span_allocs;
  bytes = round_up(std::max<std::size_t>(bytes, 1), kAlignment);
  if (cursor_ + bytes <= slab_.size()) {
    // The slab starts on a line and every span size is a multiple of
    // kAlignment, so cursor offsets need no per-span padding, and a slab
    // regrown to exactly the episode footprint fits that episode with zero
    // overflow.
    std::byte* p = slab_.data() + cursor_;
    cursor_ += bytes;
    episode_peak_ = std::max(episode_peak_, cursor_ + overflow_bytes_);
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes, episode_peak_);
    return p;
  }
  // Slab miss: serve from an individually owned block so the request still
  // succeeds, and remember the episode's true footprint so end_episode()
  // regrows the slab and the next episode stays on the fast path.
  std::byte* p = overflow_.emplace_back(bytes).data();
  g_heap_events.fetch_add(1, std::memory_order_relaxed);
  ++stats_.heap_events;
  ++stats_.overflow_allocs;
  overflow_bytes_ += bytes;
  episode_peak_ = std::max(episode_peak_, cursor_ + overflow_bytes_);
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, episode_peak_);
  return p;
}

void Arena::end_episode() {
  const std::size_t capacity = slab_.size();
  if (!overflow_.empty() || episode_peak_ > capacity) {
    // Geometric growth: repeated slightly-larger episodes must not realloc
    // every round.
    replace_slab(std::max(round_up(episode_peak_, kAlignment),
                          capacity * 2));
  } else if (trim_ > 0 && capacity > trim_ && episode_peak_ > 0 &&
             episode_peak_ <= trim_) {
    replace_slab(round_up(episode_peak_, kAlignment));
  }
  episode_peak_ = 0;
}

void Arena::reset() {
  FEDVR_CHECK_MSG(depth_ == 0, "Arena::reset() inside a Workspace scope");
  overflow_.clear();
  overflow_bytes_ = 0;
  cursor_ = 0;
  end_episode();
}

Workspace::Workspace(Arena& arena)
    : arena_(arena),
      saved_cursor_(arena.cursor_),
      saved_overflow_count_(arena.overflow_.size()),
      saved_overflow_bytes_(arena.overflow_bytes_) {
  ++arena_.depth_;
}

Workspace::~Workspace() {
  arena_.cursor_ = saved_cursor_;
  arena_.overflow_.resize(saved_overflow_count_);
  arena_.overflow_bytes_ = saved_overflow_bytes_;
  if (--arena_.depth_ == 0) arena_.end_episode();
}

Arena& scratch_arena() {
  // One arena per thread; pool workers and the main thread never share.
  // Trim mirrors the historical thread_local scratch cap (kernels.h).
  thread_local Arena arena(/*capacity_bytes=*/0,
                           /*trim_bytes=*/kScratchCapDoubles *
                               sizeof(double));
  return arena;
}

}  // namespace fedvr::tensor
