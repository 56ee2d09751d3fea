// fedvr::obs metrics registry: named counters and gauges, snapshotable at
// any time.
//
// Hot-path cost model:
//   * Counter::add — one relaxed fetch_add on a per-thread shard (wait-free,
//     no cache-line ping-pong between threads).
//   * Gauge::set — one relaxed store; Gauge::add — a CAS loop (gauges are
//     not meant for per-element hot loops).
// Registration (counter()/gauge()) takes a mutex and should be done once
// per site; the FEDVR_OBS_COUNT macro caches the handle in a function-local
// static so steady-state cost is the enabled() check plus the shard
// increment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace fedvr::obs {

namespace detail {
/// Small dense per-thread slot used to pick counter shards.
[[nodiscard]] std::size_t thread_slot();
}  // namespace detail

/// Monotonically increasing integer metric. Sharded across cache-line-sized
/// slots so concurrent writers on different threads do not contend.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  // TSAN: relaxed fetch_add on an atomic shard is race-free by definition;
  // no ordering is needed because no other data is published through it.
  void add(std::uint64_t delta = 1) {
    shards_[detail::thread_slot() % kShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over shards. Not a point-in-time linearizable read while writers
  /// are active, but exact once writers have quiesced (e.g. after a
  /// parallel_for returns).
  // TSAN: relaxed loads concurrent with writers are intentional — the sum
  // may be stale but never torn; quiescence (pool join / future.get) gives
  // the happens-before edge that makes the final read exact.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins floating-point metric (e.g. queue depth, utilization).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }

  // TSAN: the relaxed CAS loop is lock-free read-modify-write on a single
  // atomic; concurrent add() calls serialize through the CAS, so no update
  // is lost and no ordering beyond the atomicity itself is required.
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// A point-in-time copy of every registered metric, ordered by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;

  /// One JSON object per line:
  ///   {"type":"counter","name":"...","value":N}
  ///   {"type":"gauge","name":"...","value":X}
  void write_jsonl(std::ostream& os) const;
};

/// Name -> metric registry. Handles returned by counter()/gauge() are
/// stable for the registry's lifetime.
class Registry {
 public:
  /// The process-wide registry used by all fedvr instrumentation.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// Throws util::Error if `name` is already a different metric type.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric's value (registrations survive). For tests and
  /// run-scoped collection.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

}  // namespace fedvr::obs

// Hot-path counter increment: a relaxed enabled() check, then a sharded
// fetch_add on a handle cached in a function-local static.
#define FEDVR_OBS_COUNT(name, delta)                              \
  do {                                                            \
    if (::fedvr::obs::enabled()) {                                \
      static ::fedvr::obs::Counter& fedvr_obs_counter =           \
          ::fedvr::obs::Registry::global().counter(name);         \
      fedvr_obs_counter.add(static_cast<std::uint64_t>(delta));   \
    }                                                             \
  } while (0)
