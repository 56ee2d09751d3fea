// Wire-format round-trip properties: float64 is exact, float32 and
// int8-block round-trip within documented error bounds, sparse sections
// scatter back into place, and from_bytes() rejects malformed frames —
// hand-picked ones, and a seeded mutation sweep over frames of every shape.
#include "comm/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::comm {
namespace {

using fedvr::util::Error;

std::vector<double> random_values(std::size_t n, std::uint64_t seed,
                                  double scale = 1.0) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, scale);
  return v;
}

TEST(Message, DenseFloat64RoundTripIsExact) {
  // Property test over sizes straddling quantization-block boundaries.
  for (const std::size_t n : {1u, 7u, 32u, 33u, 100u, 257u}) {
    const auto v = random_values(n, 41 + n, 1e6);
    const Message msg = Message::encode_dense(v, DType::kFloat64);
    EXPECT_EQ(msg.dtype(), DType::kFloat64);
    EXPECT_FALSE(msg.sparse());
    EXPECT_EQ(msg.dim(), n);
    EXPECT_EQ(msg.count(), n);
    EXPECT_EQ(msg.wire_size(), kHeaderBytes + n * sizeof(double));
    std::vector<double> out(n);
    msg.decode(out);
    EXPECT_EQ(out, v);  // bit-exact, not just approximate
  }
}

TEST(Message, DenseFloat32RoundTripWithinSinglePrecision) {
  const std::size_t n = 100;
  const auto v = random_values(n, 7);
  const Message msg = Message::encode_dense(v, DType::kFloat32);
  EXPECT_EQ(msg.wire_size(), kHeaderBytes + n * sizeof(float));
  std::vector<double> out(n);
  msg.decode(out);
  for (std::size_t i = 0; i < n; ++i) {
    // float32 has a 24-bit significand: relative error <= 2^-24.
    EXPECT_NEAR(out[i], v[i], std::abs(v[i]) * 0x1.0p-23 + 1e-30);
    EXPECT_EQ(out[i], static_cast<double>(static_cast<float>(v[i])));
  }
}

TEST(Message, Int8BlockRoundTripWithinPerBlockBound) {
  for (const std::size_t n : {5u, 32u, 70u, 256u}) {
    const auto v = random_values(n, 11 + n, 3.0);
    const Message msg = Message::encode_dense(v, DType::kInt8Block);
    std::vector<double> out(n);
    msg.decode(out);
    for (std::size_t b = 0; b * kQuantBlock < n; ++b) {
      const std::size_t lo = b * kQuantBlock;
      const std::size_t hi = std::min(n, lo + kQuantBlock);
      double amax = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        amax = std::max(amax, std::abs(v[i]));
      }
      // scale = amax/127, so rounding error is at most scale/2 = amax/254
      // per element (plus float32 scale storage slack).
      const double bound = amax / 254.0 + amax * 1e-6;
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_NEAR(out[i], v[i], bound) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Message, Int8BlockZeroVectorIsExact) {
  const std::vector<double> v(40, 0.0);
  const Message msg = Message::encode_dense(v, DType::kInt8Block);
  std::vector<double> out(40, 1.0);
  msg.decode(out);
  EXPECT_EQ(out, v);
}

TEST(Message, SparseRoundTripScattersIntoPlace) {
  const std::size_t dim = 50;
  const std::vector<std::uint32_t> idx{3, 7, 20, 49};
  const std::vector<double> vals{1.5, -2.25, 0.125, 9.0};
  const Message msg = Message::encode_sparse(dim, idx, vals, DType::kFloat64);
  EXPECT_TRUE(msg.sparse());
  EXPECT_EQ(msg.dim(), dim);
  EXPECT_EQ(msg.count(), idx.size());
  EXPECT_EQ(msg.wire_size(), kHeaderBytes + idx.size() * sizeof(std::uint32_t) +
                                 idx.size() * sizeof(double));
  std::vector<double> out(dim, 777.0);  // decode must zero-fill the gaps
  msg.decode(out);
  std::vector<double> expect(dim, 0.0);
  for (std::size_t k = 0; k < idx.size(); ++k) expect[idx[k]] = vals[k];
  EXPECT_EQ(out, expect);
}

TEST(Message, EncodeNonzerosKeepsOnlySupport) {
  std::vector<double> delta(30, 0.0);
  delta[2] = 1.0;
  delta[17] = -4.5;
  const Message msg = Message::encode_nonzeros(delta, DType::kFloat64);
  EXPECT_TRUE(msg.sparse());
  EXPECT_EQ(msg.count(), 2u);
  std::vector<double> out(30);
  msg.decode(out);
  EXPECT_EQ(out, delta);
}

TEST(Message, FromBytesRoundTripsSerializedFrames) {
  const auto v = random_values(65, 3);
  const Message msg = Message::encode_dense(v, DType::kInt8Block);
  std::vector<std::uint8_t> wire(msg.bytes().begin(), msg.bytes().end());
  const Message back = Message::from_bytes(std::move(wire));
  EXPECT_EQ(back.dtype(), DType::kInt8Block);
  EXPECT_EQ(back.dim(), 65u);
  std::vector<double> a(65), b(65);
  msg.decode(a);
  back.decode(b);
  EXPECT_EQ(a, b);
}

TEST(Message, FromBytesRejectsMalformedFrames) {
  const auto v = random_values(16, 5);
  const Message msg = Message::encode_dense(v, DType::kFloat64);
  const std::vector<std::uint8_t> good(msg.bytes().begin(),
                                       msg.bytes().end());

  auto corrupt = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[at] = value;
    return bad;
  };
  // Bad magic, bad version, bad dtype tag, bad flags.
  EXPECT_THROW((void)Message::from_bytes(corrupt(0, 'X')), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(2, 99)), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(3, 7)), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(4, 2)), Error);
  // Truncated payload and truncated header.
  std::vector<std::uint8_t> short_payload(good.begin(), good.end() - 1);
  EXPECT_THROW((void)Message::from_bytes(std::move(short_payload)), Error);
  std::vector<std::uint8_t> tiny(good.begin(), good.begin() + 8);
  EXPECT_THROW((void)Message::from_bytes(std::move(tiny)), Error);
}

TEST(Message, FromBytesRejectsUnsortedSparseIndices) {
  const std::vector<std::uint32_t> idx{9, 3};  // descending: invalid
  const std::vector<double> vals{1.0, 2.0};
  // encode_sparse itself validates, so build a descending frame by
  // re-serializing a valid one with its index section swapped.
  const std::vector<std::uint32_t> ascending{3, 9};
  const Message valid =
      Message::encode_sparse(10, ascending, vals, DType::kFloat64);
  std::vector<std::uint8_t> wire(valid.bytes().begin(), valid.bytes().end());
  for (std::size_t b = 0; b < sizeof(std::uint32_t); ++b) {
    std::swap(wire[kHeaderBytes + b], wire[kHeaderBytes + 4 + b]);
  }
  EXPECT_THROW((void)Message::from_bytes(std::move(wire)), Error);
  EXPECT_THROW(
      (void)Message::encode_sparse(10, idx, vals, DType::kFloat64), Error);
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t off,
             std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t off,
             std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::vector<std::uint8_t> frame_bytes(const Message& msg) {
  return {msg.bytes().begin(), msg.bytes().end()};
}

// `bytes` with the byte at `at` replaced by `value`.
std::vector<std::uint8_t> with_byte(std::vector<std::uint8_t> bytes,
                                    std::size_t at, std::uint8_t value) {
  bytes.at(at) = value;
  return bytes;
}

// Header offsets of dim and count (see the layout table in message.h).
constexpr std::size_t kDimOffset = 8;
constexpr std::size_t kCountOffset = 16;

TEST(Message, FromBytesRejectsDenseCountThatWrapsTheSizeCheck) {
  // A 48-byte dense float64 frame (three values) whose header claims
  // dim = count = 2^61 + 3: 24 + 8·count wraps around 2^64 to exactly 48.
  std::vector<std::uint8_t> wire = frame_bytes(
      Message::encode_dense(random_values(3, 41), DType::kFloat64));
  ASSERT_EQ(wire.size(), 48u);
  const std::uint64_t count = (std::uint64_t{1} << 61) + 3;
  put_u64(wire, kDimOffset, count);
  put_u64(wire, kCountOffset, count);
  EXPECT_THROW((void)Message::from_bytes(std::move(wire)), Error);
}

TEST(Message, FromBytesRejectsSparseCountThatWrapsTheSizeCheck) {
  // A 48-byte sparse float64 frame (two indices, two values) whose header
  // claims dim = 2^63 and count = 2^62 + 2: 24 + 12·count wraps to 48.
  // The 24 bytes after the header read as six ascending indices, so an
  // accepted frame's index check walks off the end of the buffer.
  const std::vector<std::uint32_t> idx{3, 7};
  std::vector<std::uint8_t> wire = frame_bytes(Message::encode_sparse(
      10, idx, random_values(2, 43), DType::kFloat64));
  ASSERT_EQ(wire.size(), 48u);
  put_u64(wire, kDimOffset, std::uint64_t{1} << 63);
  put_u64(wire, kCountOffset, (std::uint64_t{1} << 62) + 2);
  for (std::uint32_t i = 0; i < 6; ++i) put_u32(wire, kHeaderBytes + 4 * i, i);
  EXPECT_THROW((void)Message::from_bytes(std::move(wire)), Error);
}

TEST(Message, FromBytesRejectsSparseDimBeyondU32Indices) {
  // encode_sparse refuses a dim its u32 indices cannot address; a received
  // frame claiming one is rejected the same way.
  const std::vector<std::uint32_t> idx{3, 7};
  std::vector<std::uint8_t> wire = frame_bytes(Message::encode_sparse(
      10, idx, random_values(2, 47), DType::kFloat32));
  put_u64(wire, kDimOffset, std::uint64_t{1} << 32);
  EXPECT_THROW((void)Message::from_bytes(std::move(wire)), Error);
}

// Parses one mutated frame. It must be rejected with util::Error, or
// accepted as a frame exactly as long as its input that — when its dim is
// small enough to allocate — decodes into a dim()-sized buffer. Any other
// exception, or a crash under the sanitizers, fails the sweep. Returns
// whether the frame was accepted.
bool expect_rejected_or_sound(std::vector<std::uint8_t> bytes,
                              const std::string& what) {
  const std::size_t size = bytes.size();
  std::optional<Message> msg;
  try {
    msg.emplace(Message::from_bytes(std::move(bytes)));
  } catch (const Error&) {
    return false;
  }
  EXPECT_EQ(msg->wire_size(), size) << what;
  if (msg->dim() <= (std::size_t{1} << 16)) {
    std::vector<double> out(msg->dim());
    EXPECT_NO_THROW(msg->decode(out)) << what;
  }
  return true;
}

TEST(Message, FromBytesSurvivesSeededMutationSweep) {
  std::vector<std::pair<std::string, Message>> frames;
  const std::vector<std::uint32_t> idx{0, 2, 31, 32, 64, 99};
  for (const DType dtype :
       {DType::kFloat64, DType::kFloat32, DType::kInt8Block}) {
    for (const std::size_t n : {1u, 33u, 70u}) {
      frames.emplace_back(
          "dense " + dtype_name(dtype) + " n=" + std::to_string(n),
          Message::encode_dense(random_values(n, 100 + n), dtype));
    }
    frames.emplace_back(
        "sparse " + dtype_name(dtype),
        Message::encode_sparse(100, idx, random_values(idx.size(), 7),
                               dtype));
    frames.emplace_back("empty sparse " + dtype_name(dtype),
                        Message::encode_sparse(100, {}, {}, dtype));
  }

  util::Rng rng(2024);
  std::size_t accepted = 0;
  const auto check = [&](std::vector<std::uint8_t> bytes,
                         const std::string& what) {
    if (expect_rejected_or_sound(std::move(bytes), what)) ++accepted;
  };
  for (const auto& frame : frames) {
    const std::string& name = frame.first;
    const Message& msg = frame.second;
    const std::vector<std::uint8_t> good = frame_bytes(msg);
    check(good, name + " unmutated");

    // Truncation to every shorter length.
    for (std::size_t len = 0; len < good.size(); ++len) {
      check({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len)},
            name + " truncated to " + std::to_string(len));
    }

    // Every single-bit flip in the header, and a sample in the payload.
    const auto flip = [&](std::size_t bit) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      check(with_byte(good, bit / 8,
                      static_cast<std::uint8_t>(good[bit / 8] ^ mask)),
            name + " bit " + std::to_string(bit) + " flipped");
    };
    for (std::size_t bit = 0; bit < 8 * kHeaderBytes; ++bit) flip(bit);
    const std::size_t payload_bits = 8 * (good.size() - kHeaderBytes);
    for (int i = 0; i < 64 && payload_bits > 0; ++i) {
      flip(8 * kHeaderBytes + rng() % payload_bits);
    }

    // dim and count rewritten to edge values, singly and together. The
    // 2^61/2^62/2^63 + count values make 24 + c·count wrap around 2^64.
    const std::uint64_t count = msg.count();
    const std::uint64_t dim = msg.dim();
    for (const std::uint64_t orig : {count, dim}) {
      for (const std::uint64_t v :
           {std::uint64_t{0}, std::uint64_t{1}, orig - 1, orig + 1,
            std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + orig,
            (std::uint64_t{1} << 61) + orig, (std::uint64_t{1} << 61) + 3,
            (std::uint64_t{1} << 62) + orig, (std::uint64_t{1} << 62) + 2,
            std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + orig,
            ~std::uint64_t{0}}) {
        const std::string value = std::to_string(v);
        std::vector<std::uint8_t> bad = good;
        put_u64(bad, kDimOffset, v);
        check(bad, name + " dim=" + value);
        put_u64(bad, kCountOffset, v);
        check(bad, name + " dim=count=" + value);
        bad = good;
        put_u64(bad, kCountOffset, v);
        check(bad, name + " count=" + value);
      }
    }

    // Unknown dtype tags, and every flag byte.
    for (unsigned tag = 3; tag <= 255; ++tag) {
      EXPECT_FALSE(expect_rejected_or_sound(
          with_byte(good, 3, static_cast<std::uint8_t>(tag)), name))
          << name << " dtype tag " << tag << " accepted";
    }
    for (unsigned flags = 0; flags <= 255; ++flags) {
      check(with_byte(good, 4, static_cast<std::uint8_t>(flags)),
            name + " flags=" + std::to_string(flags));
    }
  }
  // The sweep is not vacuous: payload flips, for one, parse and decode.
  EXPECT_GT(accepted, frames.size());
}

TEST(Message, WireBytesFormulaMatchesSerializedSize) {
  for (const DType dtype :
       {DType::kFloat64, DType::kFloat32, DType::kInt8Block}) {
    for (const std::size_t n : {1u, 32u, 33u, 200u}) {
      const auto v = random_values(n, 17 + n);
      const Message dense = Message::encode_dense(v, dtype);
      EXPECT_EQ(dense.wire_size(), wire_bytes(dtype, n, n, false));
      EXPECT_EQ(dense.bytes().size(), dense.wire_size());
    }
  }
  // Sparse: 2 of 100 kept.
  const std::vector<std::uint32_t> idx{1, 50};
  const std::vector<double> vals{1.0, 2.0};
  const Message sp = Message::encode_sparse(100, idx, vals, DType::kFloat32);
  EXPECT_EQ(sp.wire_size(), wire_bytes(DType::kFloat32, 100, 2, true));
}

TEST(Message, ValidatesEncodeArguments) {
  EXPECT_THROW((void)Message::encode_dense({}, DType::kFloat64), Error);
  // Sparse index out of range and index/value length mismatch.
  const std::vector<std::uint32_t> out_of_range{4};
  const std::vector<std::uint32_t> two{0, 1};
  const std::vector<double> one{1.0};
  EXPECT_THROW(
      (void)Message::encode_sparse(4, out_of_range, one, DType::kFloat64),
      Error);
  EXPECT_THROW((void)Message::encode_sparse(4, two, one, DType::kFloat64),
               Error);
}

}  // namespace
}  // namespace fedvr::comm
