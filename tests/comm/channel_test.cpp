// The channel seam: uplink = EF-compensate -> compress -> encode -> decode,
// the per-device error-feedback residuals that recursion keeps, and the
// byte-derived LinkModel split of the analytic d_com.
#include "comm/channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::comm {
namespace {

using fedvr::util::Error;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i + 1) * (i % 2 == 0 ? 1.0 : -1.0);
  }
  return v;
}

TEST(ChannelOptions, LabelNamesThePipeline) {
  ChannelOptions plain;
  EXPECT_EQ(plain.label(), "dense/f64");
  ChannelOptions lossy;
  lossy.compressor = std::make_shared<TopKCompressor>(0.25);
  lossy.error_feedback = true;
  lossy.uplink_dtype = DType::kInt8Block;
  EXPECT_EQ(lossy.label(), "top-k(0.25)+ef/q8");
}

TEST(ChannelOptions, ValidateRejectsAnUnknownDtypeTag) {
  for (const DType dtype :
       {DType::kFloat64, DType::kFloat32, DType::kInt8Block}) {
    ChannelOptions ok;
    ok.uplink_dtype = dtype;
    EXPECT_NO_THROW(ok.validate()) << dtype_name(dtype);
  }
  ChannelOptions bad;
  bad.uplink_dtype = static_cast<DType>(7);
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_THROW(Channel(bad, 1, 8), Error);
}

TEST(ChannelOptions, TransformsUplinkOnlyWhenValuesChange) {
  EXPECT_FALSE(ChannelOptions{}.transforms_uplink());
  ChannelOptions timed;
  timed.byte_timing = true;  // changes the clock, not the values
  EXPECT_FALSE(timed.transforms_uplink());
  ChannelOptions sparse;
  sparse.compressor = std::make_shared<TopKCompressor>(0.5);
  EXPECT_TRUE(sparse.transforms_uplink());
  ChannelOptions ef;
  ef.error_feedback = true;
  EXPECT_TRUE(ef.transforms_uplink());
  ChannelOptions f32;
  f32.uplink_dtype = DType::kFloat32;
  EXPECT_TRUE(f32.transforms_uplink());
}

TEST(Channel, PassthroughChannelDoesNotTouchValues) {
  const std::size_t dim = 16;
  Channel ch(ChannelOptions{}, 2, dim);
  std::vector<double> delta = ramp(dim);
  const std::vector<double> original = delta;
  util::Rng rng(1);
  const std::size_t bytes = ch.uplink(0, delta, rng);
  EXPECT_EQ(delta, original);  // bit-identical: pure accounting
  EXPECT_EQ(bytes, ch.uplink_wire_bytes());
  EXPECT_EQ(bytes, kHeaderBytes + dim * sizeof(double));
  EXPECT_EQ(ch.downlink_wire_bytes(), kHeaderBytes + dim * sizeof(double));
}

TEST(Channel, TopKUplinkReconstructionKeepsLargestAndTracksResidual) {
  const std::size_t dim = 8;
  ChannelOptions opts;
  opts.compressor = std::make_shared<TopKCompressor>(0.25);  // keep 2 of 8
  opts.error_feedback = true;
  Channel ch(opts, 1, dim);
  std::vector<double> delta = ramp(dim);  // largest |.|: coords 7, 6
  const std::vector<double> original = delta;
  util::Rng rng(1);
  const std::size_t bytes = ch.uplink(0, delta, rng);
  // Reconstruction: the two largest-magnitude coordinates, zeros elsewhere.
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(delta[i], i >= 6 ? original[i] : 0.0) << i;
  }
  // Sparse f64 message: header + 2 indices + 2 values.
  EXPECT_EQ(bytes, kHeaderBytes + 2 * 4 + 2 * 8);
  EXPECT_EQ(bytes, ch.uplink_wire_bytes());
  // The residual holds exactly what compression dropped.
  const auto e = ch.residual(0);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(e[i], original[i] - delta[i]) << i;
  }
}

TEST(Channel, ErrorFeedbackReinjectsResidualNextRound) {
  const std::size_t dim = 4;
  ChannelOptions opts;
  opts.compressor = std::make_shared<TopKCompressor>(0.25);  // keep 1 of 4
  opts.error_feedback = true;
  Channel ch(opts, 1, dim);
  util::Rng rng(1);
  std::vector<double> r1{4.0, 1.0, 1.0, 1.0};
  (void)ch.uplink(0, r1, rng);  // sends coord 0; e = {0,1,1,1}
  // Next round the compensated delta is {0+0, 1+3, 1+1, 1+1}: coordinate 1
  // now dominates and gets through — mass is deferred, never lost.
  std::vector<double> r2{0.0, 3.0, 1.0, 1.0};
  (void)ch.uplink(0, r2, rng);
  EXPECT_EQ(r2, (std::vector<double>{0.0, 4.0, 0.0, 0.0}));
  const auto e = ch.residual(0);
  EXPECT_EQ(std::vector<double>(e.begin(), e.end()),
            (std::vector<double>{0.0, 0.0, 2.0, 2.0}));
}

ChannelOptions top_k_ef(double fraction) {
  ChannelOptions opts;
  opts.compressor = std::make_shared<TopKCompressor>(fraction);
  opts.error_feedback = true;
  return opts;
}

std::vector<double> residual_of(const Channel& ch, std::size_t device) {
  const auto e = ch.residual(device);
  return {e.begin(), e.end()};
}

TEST(Channel, PreparedDevicesStartWithZeroResiduals) {
  Channel ch(top_k_ef(0.25), 3, 4);
  const std::vector<std::size_t> devices{0, 1, 2};
  ch.prepare(devices);
  for (const std::size_t n : devices) {
    EXPECT_EQ(residual_of(ch, n), (std::vector<double>(4, 0.0))) << n;
  }
  // Only prepared (or uplinked) devices hold a residual.
  EXPECT_THROW((void)ch.residual(3), Error);
}

TEST(Channel, RecursionAccumulatesWhatCompressionDropped) {
  Channel ch(top_k_ef(1.0 / 3.0), 2, 3);  // keep 1 of 3
  const std::vector<std::size_t> devices{0, 1};
  ch.prepare(devices);
  util::Rng rng(1);
  // Round 1 on device 0: delta {1, 2, 3}; the server receives {0, 0, 3}.
  std::vector<double> delta{1.0, 2.0, 3.0};
  (void)ch.uplink(0, delta, rng);
  EXPECT_EQ(delta, (std::vector<double>{0.0, 0.0, 3.0}));
  EXPECT_EQ(residual_of(ch, 0), (std::vector<double>{1.0, 2.0, 0.0}));

  // Round 2: the dropped mass rides along with the next delta, which is
  // compensated to {1.5, 2.5, 0.5} before compression.
  std::vector<double> next{0.5, 0.5, 0.5};
  (void)ch.uplink(0, next, rng);
  EXPECT_EQ(next, (std::vector<double>{0.0, 2.5, 0.0}));
  EXPECT_EQ(residual_of(ch, 0), (std::vector<double>{1.5, 0.0, 0.5}));

  // Device 1's residual never moved: EF state is strictly per-device.
  EXPECT_EQ(residual_of(ch, 1), (std::vector<double>(3, 0.0)));
}

TEST(Channel, ExactTransmissionLeavesNoResidual) {
  ChannelOptions opts;  // dense float64: the server receives delta exactly
  opts.error_feedback = true;
  Channel ch(opts, 1, 4);
  util::Rng rng(1);
  std::vector<double> delta{1.0, -2.0, 3.0, -4.0};
  (void)ch.uplink(0, delta, rng);
  EXPECT_EQ(delta, (std::vector<double>{1.0, -2.0, 3.0, -4.0}));
  EXPECT_EQ(residual_of(ch, 0), (std::vector<double>(4, 0.0)));
}

TEST(Channel, QuantizedUplinkBoundsError) {
  const std::size_t dim = 64;
  ChannelOptions opts;
  opts.uplink_dtype = DType::kInt8Block;
  Channel ch(opts, 1, dim);
  std::vector<double> delta = ramp(dim);
  const std::vector<double> original = delta;
  util::Rng rng(1);
  const std::size_t bytes = ch.uplink(0, delta, rng);
  EXPECT_LT(bytes, kHeaderBytes + dim * sizeof(double));  // actually smaller
  double amax = 0.0;
  for (const double v : original) amax = std::max(amax, std::abs(v));
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(delta[i], original[i], amax / 254.0 + amax * 1e-6);
  }
}

TEST(LinkModel, DeriveCalibratesReferenceExchangeToDcom) {
  const fl::TimingModel timing{.d_com = 2.0, .d_cmp = 0.1};
  const std::size_t ref_bytes = 1000;
  const LinkModel link = LinkModel::derive(timing, ref_bytes, 0.25);
  EXPECT_NEAR(link.transfer_time(ref_bytes), 2.0, 1e-12);
  EXPECT_NEAR(link.latency, 0.5, 1e-12);
  // Half the bytes: latency floor + half the bandwidth term.
  EXPECT_NEAR(link.transfer_time(ref_bytes / 2), 0.5 + 0.75, 1e-12);
}

TEST(LinkModel, DeriveRejectsOutOfRangeInputs) {
  const fl::TimingModel timing{.d_com = 2.0, .d_cmp = 0.1};
  // The latency fraction must leave some d_com for the bandwidth term.
  EXPECT_THROW((void)LinkModel::derive(timing, 1000, 1.0), Error);
  EXPECT_THROW((void)LinkModel::derive(timing, 1000, 1.5), Error);
  EXPECT_THROW((void)LinkModel::derive(timing, 1000, -0.25), Error);
  EXPECT_THROW((void)LinkModel::derive(timing, 0, 0.5), Error);
  const fl::TimingModel negative{.d_com = -1.0, .d_cmp = 0.1};
  EXPECT_THROW((void)LinkModel::derive(negative, 1000, 0.5), Error);
  // Fraction 0: no latency floor, all of d_com is bandwidth.
  const LinkModel pure = LinkModel::derive(timing, 1000, 0.0);
  EXPECT_EQ(pure.latency, 0.0);
  EXPECT_NEAR(pure.transfer_time(1000), 2.0, 1e-12);
  EXPECT_NEAR(pure.transfer_time(250), 0.5, 1e-12);
}

TEST(Channel, ByteTimingSplitsDcomAtTheLatencyConstant) {
  // link_round_time = f·d_com + (1 − f)·d_com · (down + up) / (2·dense),
  // with f = kLinkLatencyFraction and dense the float64 frame.
  const std::size_t dim = 1000;
  const fl::TimingModel timing{.d_com = 3.0, .d_cmp = 0.1};
  const double dense = static_cast<double>(kHeaderBytes + dim * 8);
  ChannelOptions opts;
  opts.byte_timing = true;
  opts.compressor = std::make_shared<TopKCompressor>(0.1);
  for (const DType dtype : {DType::kFloat64, DType::kInt8Block}) {
    opts.uplink_dtype = dtype;
    const Channel ch(opts, 1, dim);
    const double exchanged =
        static_cast<double>(ch.downlink_wire_bytes() + ch.uplink_wire_bytes());
    const double want = kLinkLatencyFraction * timing.d_com +
                        (1.0 - kLinkLatencyFraction) * timing.d_com *
                            exchanged / (2.0 * dense);
    EXPECT_NEAR(ch.link_round_time(timing), want, 1e-12) << dtype_name(dtype);
  }
}

TEST(Channel, ByteTimingChargesDcomForDenseAndLessWhenCompressed) {
  const std::size_t dim = 1000;
  const fl::TimingModel timing{.d_com = 1.0, .d_cmp = 0.1};
  ChannelOptions dense;
  dense.byte_timing = true;
  Channel dense_ch(dense, 1, dim);
  // The dense f64 down+up exchange is the calibration reference: exactly
  // d_com.
  EXPECT_NEAR(dense_ch.link_round_time(timing), 1.0, 1e-12);

  ChannelOptions lossy = dense;
  lossy.compressor = std::make_shared<TopKCompressor>(0.1);
  lossy.uplink_dtype = DType::kInt8Block;
  Channel lossy_ch(lossy, 1, dim);
  const double t = lossy_ch.link_round_time(timing);
  EXPECT_LT(t, 1.0);                              // cheaper than dense
  EXPECT_GT(t, kLinkLatencyFraction * 1.0 / 2);  // latency floor remains
}

TEST(Channel, ValidatesDeltaSize) {
  Channel ch(ChannelOptions{}, 1, 8);
  std::vector<double> wrong(4, 1.0);
  util::Rng rng(1);
  EXPECT_THROW((void)ch.uplink(0, wrong, rng), Error);
}

}  // namespace
}  // namespace fedvr::comm
