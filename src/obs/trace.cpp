#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "obs/registry.h"  // detail::thread_slot
#include "util/error.h"

namespace fedvr::obs {

namespace {

constexpr std::size_t kRingCapacity = 1 << 14;  // 16k spans/thread, ~512 KiB

// Per-thread ring buffer. Only its owner thread pushes; exporters read
// under the same (practically uncontended) mutex.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread_id) : thread_id_(thread_id) {
    ring_.reserve(kRingCapacity);
  }

  void push(SpanRecord r) {
    r.thread_id = thread_id_;
    std::scoped_lock lock(mutex_);
    if (ring_.size() < kRingCapacity) {
      ring_.push_back(r);
    } else {
      ring_[head_] = r;
      head_ = (head_ + 1) % kRingCapacity;
      ++dropped_;
    }
  }

  void drain_into(std::vector<SpanRecord>& out) const {
    std::scoped_lock lock(mutex_);
    // Oldest-first: [head_, end) then [0, head_).
    for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::scoped_lock lock(mutex_);
    return dropped_;
  }

  void clear() {
    std::scoped_lock lock(mutex_);
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;  // index of the oldest record once the ring is full
  std::uint64_t dropped_ = 0;
  std::uint32_t thread_id_;
};

// Buffers are shared_ptrs held by a global list so exports see spans from
// threads that have already exited.
struct BufferDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
};

BufferDirectory& directory() {
  // Worker threads may record spans during process teardown, after static
  // destructors run, so the directory must outlive every static.
  // lint:allow(no-naked-new) intentionally leaked teardown-safe singleton
  static BufferDirectory* dir = new BufferDirectory();
  return *dir;
}

SpanBuffer& thread_buffer() {
  thread_local const std::shared_ptr<SpanBuffer> buffer = [] {
    auto b = std::make_shared<SpanBuffer>(
        static_cast<std::uint32_t>(detail::thread_slot()));
    auto& dir = directory();
    std::scoped_lock lock(dir.mutex);
    dir.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

namespace detail {

void record_span(const SpanRecord& r) { thread_buffer().push(r); }

std::uint32_t& span_depth() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

}  // namespace detail

std::vector<SpanRecord> collect_spans() {
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    auto& dir = directory();
    std::scoped_lock lock(dir.mutex);
    buffers = dir.buffers;
  }
  std::vector<SpanRecord> all;
  for (const auto& b : buffers) b->drain_into(all);
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns != b.start_ns
                                ? a.start_ns < b.start_ns
                                : a.end_ns > b.end_ns;  // parents first
                   });
  return all;
}

std::uint64_t spans_dropped() {
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    auto& dir = directory();
    std::scoped_lock lock(dir.mutex);
    buffers = dir.buffers;
  }
  std::uint64_t total = 0;
  for (const auto& b : buffers) total += b->dropped();
  return total;
}

void clear_spans() {
  auto& dir = directory();
  std::scoped_lock lock(dir.mutex);
  for (const auto& b : dir.buffers) b->clear();
}

void write_chrome_trace(std::ostream& os) {
  const auto spans = collect_spans();
  os << "{\"traceEvents\":[";
  std::string line;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    line.clear();
    if (i > 0) line += ',';
    line += "\n{\"name\":\"";
    line += s.name;
    line += "\",\"cat\":\"fedvr\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    line += std::to_string(s.thread_id);
    line += ",\"ts\":";
    append_double(line, static_cast<double>(s.start_ns) / 1e3);
    line += ",\"dur\":";
    append_double(line, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    line += ",\"args\":{\"depth\":";
    line += std::to_string(s.depth);
    line += "}}";
    os << line;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  FEDVR_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_chrome_trace(out);
}

void write_span_summary_jsonl(std::ostream& os) {
  struct Agg {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;  // ordered => deterministic output
  for (const auto& s : collect_spans()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    auto& a = by_name[s.name];
    if (a.count == 0) {
      a.min_us = us;
      a.max_us = us;
    } else {
      a.min_us = std::min(a.min_us, us);
      a.max_us = std::max(a.max_us, us);
    }
    ++a.count;
    a.total_us += us;
  }
  std::string line;
  for (const auto& [name, a] : by_name) {
    line.clear();
    line += "{\"type\":\"span_summary\",\"name\":\"";
    line += name;
    line += "\",\"count\":";
    line += std::to_string(a.count);
    line += ",\"total_us\":";
    append_double(line, a.total_us);
    line += ",\"mean_us\":";
    append_double(line, a.total_us / static_cast<double>(a.count));
    line += ",\"min_us\":";
    append_double(line, a.min_us);
    line += ",\"max_us\":";
    append_double(line, a.max_us);
    line += "}\n";
    os << line;
  }
}

}  // namespace fedvr::obs
