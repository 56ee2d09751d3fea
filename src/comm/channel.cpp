#include "comm/channel.h"

#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::comm {

LinkModel LinkModel::derive(const fl::TimingModel& timing,
                            std::size_t reference_bytes,
                            double latency_fraction) {
  timing.validate();
  FEDVR_CHECK_MSG(reference_bytes > 0, "reference_bytes must be positive");
  FEDVR_CHECK_MSG(latency_fraction >= 0.0 && latency_fraction < 1.0,
                  "latency_fraction must be in [0, 1), got "
                      << latency_fraction);
  const double latency = latency_fraction * timing.d_com;
  const double transfer = (1.0 - latency_fraction) * timing.d_com;
  return LinkModel{
      .latency = latency,
      .bytes_per_time = static_cast<double>(reference_bytes) / transfer};
}

void ChannelOptions::validate() const {
  // payload_bytes throws on an out-of-range tag (possible via memcpy'd
  // enums); dtype_name would only label it "unknown".
  (void)payload_bytes(uplink_dtype, 0);
}

bool ChannelOptions::transforms_uplink() const {
  return compressor != nullptr || error_feedback ||
         uplink_dtype != DType::kFloat64;
}

std::string ChannelOptions::label() const {
  std::string s = compressor ? compressor->name() : "dense";
  if (error_feedback) s += "+ef";
  s += '/';
  s += dtype_name(uplink_dtype);
  return s;
}

Channel::Channel(ChannelOptions options, std::size_t num_devices,
                 std::size_t dim)
    : options_(std::move(options)), dim_(dim) {
  FEDVR_CHECK_MSG(num_devices > 0, "channel needs >= 1 device");
  FEDVR_CHECK_MSG(dim > 0, "channel needs dim >= 1");
  options_.validate();
}

std::vector<double>& Channel::residual_slot(std::size_t device) {
  const auto it = residuals_.find(device);
  if (it != residuals_.end()) return it->second;
  return residuals_.try_emplace(device, dim_, 0.0).first->second;
}

void Channel::prepare(std::span<const std::size_t> devices) {
  if (!options_.error_feedback) return;
  for (const std::size_t device : devices) residual_slot(device);
}

std::size_t Channel::uplink(std::size_t device, std::span<double> delta,
                            util::Rng& rng) {
  FEDVR_CHECK_MSG(delta.size() == dim_, "uplink delta size mismatch");
  if (!options_.transforms_uplink()) {
    // Pure accounting: dense float64 round-trips bit-exactly, so skip the
    // encode/decode and leave the update untouched (this keeps the
    // no-channel trainer path arithmetically identical to the pre-comm
    // engine while still charging measured message sizes).
    return uplink_wire_bytes();
  }
  // Error-feedback recursion (header comment): compensate, keep the
  // corrected delta in the residual slot, transmit, and leave there what
  // the server did not receive. A missing slot is registered here for
  // serial callers; parallel callers must prepare() first.
  std::vector<double>* e =
      options_.error_feedback ? &residual_slot(device) : nullptr;
  if (e != nullptr) {
    tensor::axpy(1.0, *e, delta);
    tensor::copy(delta, *e);
  }
  if (options_.compressor) {
    options_.compressor->compress(delta, rng);
  }
  const Message msg =
      options_.compressor
          ? Message::encode_nonzeros(delta, options_.uplink_dtype)
          : Message::encode_dense(delta, options_.uplink_dtype);
  msg.decode(delta);  // what the server actually receives
  if (e != nullptr) tensor::sub(*e, delta, *e);
  return msg.wire_size();
}

std::size_t Channel::uplink_wire_bytes() const {
  const std::size_t kept =
      options_.compressor ? options_.compressor->kept(dim_) : dim_;
  return wire_bytes(options_.uplink_dtype, dim_, kept,
                    /*sparse=*/options_.compressor != nullptr);
}

std::size_t Channel::downlink_wire_bytes() const {
  return wire_bytes(DType::kFloat64, dim_, dim_, /*sparse=*/false);
}

double Channel::link_round_time(const fl::TimingModel& timing) const {
  // Reference: the dense float64 down+up exchange the analytic d_com was
  // calibrated against.
  const std::size_t reference =
      2 * wire_bytes(DType::kFloat64, dim_, dim_, /*sparse=*/false);
  const LinkModel link =
      LinkModel::derive(timing, reference, kLinkLatencyFraction);
  return link.transfer_time(downlink_wire_bytes() + uplink_wire_bytes());
}

std::span<const double> Channel::residual(std::size_t device) const {
  const auto it = residuals_.find(device);
  FEDVR_CHECK_MSG(it != residuals_.end(),
                  "device " << device << " has no error-feedback residual");
  return it->second;
}

}  // namespace fedvr::comm
