// Forwarding decorators over the four public interfaces the round engines
// call: nn::Model, data::Federation, fl::Aggregator and comm::Compressor.
//
// Each decorator forwards every call unchanged to the wrapped object and
// records, from outside the library, how many calls and how much wall time
// (std::chrono::steady_clock, summed across threads) that layer consumed.
// None of them touches an argument or a result, so a decorated run must
// produce the same final_param_hash as an undecorated one; the benchmark's
// correctness gate and its self-test both check that.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "comm/compression.h"
#include "data/federation.h"
#include "fl/aggregation.h"
#include "nn/model.h"

namespace perfbench {

/// A call counter plus the wall nanoseconds spent inside those calls.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> items{0};  // samples, for the model layer
  std::atomic<std::uint64_t> busy_ns{0};

  void record(std::uint64_t n_items, std::uint64_t ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    items.fetch_add(n_items, std::memory_order_relaxed);
    busy_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] double busy_seconds() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) / 1e9;
  }
};

/// Federation::train nanoseconds on this thread not yet charged to a phase.
/// The next model call on the same thread tells where the shard went: a
/// gradient means a local solve, a loss or predict means an evaluation.
inline thread_local std::uint64_t t_pending_train_ns = 0;

/// Times one forwarded call and charges it to `stats` on scope exit (and,
/// when `pending` is set, adds the nanoseconds there too).
class ScopedCall {
 public:
  ScopedCall(CallStats& stats, std::uint64_t items,
             std::uint64_t* pending = nullptr)
      : stats_(stats), items_(items), pending_(pending),
        start_(Clock::now()) {}
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;
  ~ScopedCall() {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    stats_.record(items_, ns);
    if (pending_ != nullptr) *pending_ += ns;
  }

 private:
  using Clock = std::chrono::steady_clock;
  CallStats& stats_;
  std::uint64_t items_;
  std::uint64_t* pending_;
  Clock::time_point start_;
};

/// Everything the decorators of one traced run record.
struct LayerStats {
  CallStats grad;       // nn::Model::loss_and_gradient
  CallStats eval;       // nn::Model::loss + predict
  CallStats train;      // data::Federation::train
  CallStats aggregate;  // fl::Aggregator::aggregate
  CallStats compress;   // comm::Compressor::compress
  /// The part of train.busy_ns whose shard fed a local solve.
  std::atomic<std::uint64_t> solve_train_ns{0};

  [[nodiscard]] double solve_train_seconds() const {
    return static_cast<double>(solve_train_ns.load(std::memory_order_relaxed)) /
           1e9;
  }
};

class CountingModel final : public fedvr::nn::Model {
 public:
  CountingModel(std::shared_ptr<const fedvr::nn::Model> inner,
                LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_->num_parameters();
  }
  void initialize(fedvr::util::Rng& rng, std::span<double> w) const override {
    inner_->initialize(rng, w);
  }
  [[nodiscard]] double loss(std::span<const double> w,
                            const fedvr::data::Dataset& ds,
                            std::span<const std::size_t> indices)
      const override {
    t_pending_train_ns = 0;  // that shard was evaluated
    const ScopedCall call(stats_.eval, indices.size());
    return inner_->loss(w, ds, indices);
  }
  double loss_and_gradient(std::span<const double> w,
                           const fedvr::data::Dataset& ds,
                           std::span<const std::size_t> indices,
                           std::span<double> grad) const override {
    stats_.solve_train_ns.fetch_add(std::exchange(t_pending_train_ns, 0),
                                    std::memory_order_relaxed);
    const ScopedCall call(stats_.grad, indices.size());
    return inner_->loss_and_gradient(w, ds, indices, grad);
  }
  void predict(std::span<const double> w, const fedvr::data::Dataset& ds,
               std::span<const std::size_t> indices,
               std::span<std::size_t> out) const override {
    t_pending_train_ns = 0;
    const ScopedCall call(stats_.eval, indices.size());
    inner_->predict(w, ds, indices, out);
  }

 private:
  std::shared_ptr<const fedvr::nn::Model> inner_;
  LayerStats& stats_;
};

class CountingFederation final : public fedvr::data::Federation {
 public:
  CountingFederation(std::shared_ptr<const fedvr::data::Federation> inner,
                     LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {
    set_total_train_size(inner_->total_train_size());
  }

  [[nodiscard]] std::size_t num_devices() const override {
    return inner_->num_devices();
  }
  [[nodiscard]] std::size_t device_train_size(std::size_t n) const override {
    return inner_->device_train_size(n);
  }
  [[nodiscard]] const fedvr::data::Dataset& train(
      std::size_t n, fedvr::data::Dataset& scratch) const override {
    const ScopedCall call(stats_.train, 1, &t_pending_train_ns);
    return inner_->train(n, scratch);
  }
  [[nodiscard]] const fedvr::data::Dataset& pooled_test() const override {
    return inner_->pooled_test();
  }
  [[nodiscard]] bool materializes_on_demand() const override {
    return inner_->materializes_on_demand();
  }

 private:
  std::shared_ptr<const fedvr::data::Federation> inner_;
  LayerStats& stats_;
};

class CountingAggregator final : public fedvr::fl::Aggregator {
 public:
  CountingAggregator(std::shared_ptr<const fedvr::fl::Aggregator> inner,
                     LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void aggregate(std::span<const double> anchor,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> weights,
                 std::span<double> out) const override {
    const ScopedCall call(stats_.aggregate, updates.size());
    inner_->aggregate(anchor, updates, weights, out);
  }

 private:
  std::shared_ptr<const fedvr::fl::Aggregator> inner_;
  LayerStats& stats_;
};

class CountingCompressor final : public fedvr::comm::Compressor {
 public:
  CountingCompressor(std::shared_ptr<const fedvr::comm::Compressor> inner,
                     LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void compress(std::span<double> delta,
                fedvr::util::Rng& rng) const override {
    const ScopedCall call(stats_.compress, delta.size());
    inner_->compress(delta, rng);
  }
  [[nodiscard]] std::size_t kept(std::size_t dim) const override {
    return inner_->kept(dim);
  }
  [[nodiscard]] std::size_t wire_bytes(std::size_t dim) const override {
    return inner_->wire_bytes(dim);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const fedvr::comm::Compressor> inner_;
  LayerStats& stats_;
};

}  // namespace perfbench
