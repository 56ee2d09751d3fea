// fedvr::obs scoped trace spans.
//
//   void solve_round() {
//     OBS_SPAN("round.local_solve");
//     ...
//   }
//
// When collection is enabled (obs::set_enabled(true)), each span records
// {name, start, end, thread, depth} into a per-thread ring buffer; when
// disabled, OBS_SPAN costs one relaxed load. Buffers are fixed-size and
// overwrite oldest-first (spans_dropped() reports losses). Export as Chrome
// trace_event JSON — open in chrome://tracing or https://ui.perfetto.dev —
// or as an aggregated per-name JSONL summary.
//
// Span names must be string literals (or otherwise outlive the export):
// only the pointer is recorded on the hot path.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace fedvr::obs {

struct SpanRecord {
  const char* name = nullptr;  // static string; never owned
  std::uint64_t start_ns = 0;  // obs::now_ns() epoch
  std::uint64_t end_ns = 0;
  std::uint32_t thread_id = 0;  // dense per-thread id (detail::thread_slot)
  std::uint32_t depth = 0;      // nesting depth on its thread at entry
};

namespace detail {
void record_span(const SpanRecord& r);
std::uint32_t& span_depth();  // thread-local nesting depth
}  // namespace detail

/// RAII span. Prefer the OBS_SPAN macro, which names the local for you.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (enabled()) {
      name_ = name;
      start_ns_ = now_ns();
      depth_ = detail::span_depth()++;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (name_ != nullptr) {
      --detail::span_depth();
      detail::record_span(
          {name_, start_ns_, now_ns(), /*thread_id=*/0, depth_});
    }
  }

 private:
  const char* name_ = nullptr;  // nullptr: disabled at entry, record nothing
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// All spans recorded so far, across every thread, sorted by start time.
[[nodiscard]] std::vector<SpanRecord> collect_spans();

/// Spans lost to ring-buffer overwrite since the last clear_spans().
[[nodiscard]] std::uint64_t spans_dropped();

/// Discards all recorded spans (buffers stay allocated).
void clear_spans();

/// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds).
void write_chrome_trace(std::ostream& os);
void write_chrome_trace_file(const std::string& path);

/// One JSON object per distinct span name, ordered by name:
///   {"type":"span_summary","name":"...","count":N,"total_us":X,
///    "mean_us":X,"min_us":X,"max_us":X}
void write_span_summary_jsonl(std::ostream& os);

}  // namespace fedvr::obs

#define FEDVR_OBS_CONCAT_IMPL(a, b) a##b
#define FEDVR_OBS_CONCAT(a, b) FEDVR_OBS_CONCAT_IMPL(a, b)
#define OBS_SPAN(name)                                       \
  ::fedvr::obs::ScopedSpan FEDVR_OBS_CONCAT(fedvr_obs_span_, \
                                            __COUNTER__)(name)
