#include "obs/registry.h"

#include <charconv>

#include "util/error.h"

namespace fedvr::obs {

namespace detail {

std::size_t thread_slot() {
  // TSAN: relaxed fetch_add only needs atomicity of the ticket draw; each
  // thread's slot is then thread_local and never written again.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

namespace {
// Shortest round-trip decimal form — deterministic, locale-independent
// JSON numbers ("0.1", not "0.10000000000000001").
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
}  // namespace

}  // namespace detail

Registry& Registry::global() {
  static Registry registry;  // construct-on-first-use; lives until exit
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  FEDVR_CHECK_MSG(!gauges_.contains(name),
                  "metric '" << name << "' already registered as another type");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  FEDVR_CHECK_MSG(!counters_.contains(name),
                  "metric '" << name << "' already registered as another type");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::scoped_lock lock(mutex_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value()});
  }
  return s;
}

void Registry::reset_values() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

void MetricsSnapshot::write_jsonl(std::ostream& os) const {
  std::string line;
  for (const auto& c : counters) {
    line.clear();
    line += "{\"type\":\"counter\",\"name\":\"";
    line += c.name;
    line += "\",\"value\":";
    line += std::to_string(c.value);
    line += "}\n";
    os << line;
  }
  for (const auto& g : gauges) {
    line.clear();
    line += "{\"type\":\"gauge\",\"name\":\"";
    line += g.name;
    line += "\",\"value\":";
    detail::append_double(line, g.value);
    line += "}\n";
    os << line;
  }
}

}  // namespace fedvr::obs
