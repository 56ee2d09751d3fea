// The device<->server link: every uplink update flows through one Channel.
//
// A channel owns the whole transmission pipeline for a training run —
//
//     delta --(error feedback)--> corrected --(compressor)--> sparse
//           --(comm::Message encode)--> bytes on the wire
//           --(decode)--> the reconstruction the server aggregates
//
// — and is therefore the single place where (a) biased compressors get
// their error-feedback correction, (b) wire bytes are *measured* from the
// serialized message instead of estimated, and (c) per-link time is derived
// from those bytes. Callers never invoke Compressor::compress directly
// (tools/lint.py, compression-in-seam).
//
// Timing: the paper's TimingModel charges a flat d_com per round,
// calibrated to a dense float64 exchange. LinkModel::derive splits that
// d_com into a latency floor plus a bandwidth term such that the dense
// reference exchange still costs exactly d_com; a compressed/quantized
// exchange then costs latency + bytes/bandwidth — communication savings
// show up in eq. 19 round time, not just in the byte counters.
//
// Error feedback (EF, "SGD with memory"): biased compressors (TopK) drop
// mass every round, so plain TopK training stalls at an error floor. EF
// remembers what compression threw away and re-injects it into the next
// update (Stich, Cordonnier & Jaggi, 2018; Karimireddy et al., 2019).
// uplink() runs, per device,
//
//     corrected_n  = delta_n + e_n                     (compensate)
//     sent_n       = decode(encode(C(corrected_n)))    (what the server sees)
//     e_n         <- corrected_n - sent_n              (the new residual)
//
// The residual is measured against the *decoded* payload, so it also absorbs
// the quantization error of the float32/int8 wire dtypes. Residuals are
// keyed by device and registered on first use, so a run that samples m of
// 10^6 devices holds O(devices-ever-sampled · dim) of them, not O(N · dim).
//
// Determinism: uplink() mutates only the calling device's residual, and every
// random draw comes through the caller's forked rng, so channel traffic is
// bit-identical across thread-pool sizes. A fresh slot is zeros and still
// runs the compensating axpy, which is not a bitwise no-op (-0.0 + 0.0 is
// +0.0).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/compression.h"
#include "comm/message.h"
#include "fl/timing_model.h"
#include "util/rng.h"

namespace fedvr::comm {

/// Per-link latency + bandwidth, derived from the analytic TimingModel.
struct LinkModel {
  double latency = 0.0;          // model-time floor per exchange
  double bytes_per_time = 1.0;   // bandwidth in bytes per model-time unit

  /// Transfer time of one `bytes`-sized exchange on this link.
  [[nodiscard]] double transfer_time(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bytes_per_time;
  }

  /// Splits `timing.d_com` so that a `reference_bytes` exchange costs
  /// exactly d_com: latency = latency_fraction * d_com and the remainder is
  /// bandwidth. latency_fraction in [0, 1).
  [[nodiscard]] static LinkModel derive(const fl::TimingModel& timing,
                                        std::size_t reference_bytes,
                                        double latency_fraction);
};

/// Fraction of d_com that is latency floor under byte_timing; the rest is
/// bandwidth (LinkModel::derive).
inline constexpr double kLinkLatencyFraction = 0.5;

struct ChannelOptions {
  /// Uplink sparsifier/quantizer applied to the update delta. Null = dense.
  std::shared_ptr<const Compressor> compressor;
  /// Error-feedback compensation (see the header comment). Makes biased
  /// compressors (TopK) and lossy dtypes convergent; a no-op for the
  /// exact dense float64 path.
  bool error_feedback = false;
  /// Value encoding of uplink payloads (device -> server). The downlink
  /// broadcast is always the exact dense float64 model.
  DType uplink_dtype = DType::kFloat64;
  /// When true, per-device round time uses d_com derived from the actual
  /// serialized message bytes via LinkModel::derive (calibrated so an
  /// uncompressed float64 exchange costs the TimingModel's d_com); when
  /// false, the analytic flat d_com is charged as before.
  bool byte_timing = false;

  /// Always-on validation (util/error.h): the dtype tag must be meaningful
  /// in every build configuration.
  void validate() const;

  /// True when the uplink transforms values at all (compression, lossy
  /// dtype, or error feedback) — false means the channel is pure
  /// accounting and the trainer may skip encode/decode entirely.
  [[nodiscard]] bool transforms_uplink() const;

  /// Short human-readable label for sweep tables ("top-k(0.1)+ef/q8").
  [[nodiscard]] std::string label() const;
};

class Channel {
 public:
  /// A channel for a fleet of `num_devices` devices exchanging dim-sized
  /// vectors.
  Channel(ChannelOptions options, std::size_t num_devices, std::size_t dim);

  /// Serially registers a zero error-feedback residual for each given
  /// device that has none. REQUIRED before uplinking a device from a
  /// parallel section: uplink() registers a missing residual itself, which
  /// is only safe single-threaded. A no-op without error feedback.
  void prepare(std::span<const std::size_t> devices);

  /// Transmits one update delta for `device`: error-feedback compensation,
  /// compression, serialization, and server-side decode back into `delta`
  /// (on return, `delta` is exactly the reconstruction the server
  /// aggregates). Returns the serialized message size actually sent.
  /// Thread-safe across distinct prepared devices.
  std::size_t uplink(std::size_t device, std::span<double> delta,
                     util::Rng& rng);

  /// A-priori uplink message size (header + indices + payload for the
  /// compressor's kept-coordinate count). The realized size from uplink()
  /// can only be smaller (a compressed delta may have fewer nonzeros than
  /// the compressor keeps); lost transmissions and the timing pre-pass are
  /// charged at this size.
  [[nodiscard]] std::size_t uplink_wire_bytes() const;

  /// Serialized size of the downlink model broadcast: a dense float64
  /// frame.
  [[nodiscard]] std::size_t downlink_wire_bytes() const;

  /// Round-trip link time (downlink + one uplink) under byte_timing,
  /// derived from `timing`; callers multiply uplink retries on top.
  [[nodiscard]] double link_round_time(const fl::TimingModel& timing) const;

  /// The current error-feedback residual of a registered device
  /// (diagnostics, tests).
  [[nodiscard]] std::span<const double> residual(std::size_t device) const;

 private:
  // The device's residual, registered as zeros if it has none (serial
  // callers only: registration rehashes the map).
  std::vector<double>& residual_slot(std::size_t device);

  ChannelOptions options_;
  std::size_t dim_;
  // Error-feedback residuals by device; empty without error feedback.
  std::unordered_map<std::size_t, std::vector<double>> residuals_;
};

}  // namespace fedvr::comm
