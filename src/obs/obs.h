// fedvr::obs — observability core: the global enable flag and the trace
// clock shared by the metrics registry (registry.h), scoped spans (trace.h),
// and the round engine's phase clocks (fl/trainer.cpp).
//
// Everything in this subsystem is off by default and near-free when off:
// instrumentation sites guard on enabled(), a single relaxed atomic load.
// The subsystem deliberately has no dependencies on the rest of fedvr (only
// header-only util/error.h), so any layer — util, tensor, opt, fl — may
// instrument itself without dependency cycles.
#pragma once

#include <atomic>
#include <cstdint>

namespace fedvr::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when observability is collecting. Hot paths check this before
/// touching any counter or span; a relaxed load, typically one instruction.
// TSAN: relaxed is sufficient — the flag gates *whether* to record, never
// publishes data. A thread that reads a stale value records (or skips) a
// few extra samples around the toggle; both outcomes are race-free because
// every metric it would touch is itself atomic or mutex-guarded.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns collection on or off process-wide. Returns the previous value so
/// scoped users (e.g. fl::Trainer) can restore it.
bool set_enabled(bool on);

/// Monotonic nanoseconds since the first obs call in the process. All span
/// timestamps share this epoch, so traces from different threads line up.
[[nodiscard]] std::uint64_t now_ns();

}  // namespace fedvr::obs
