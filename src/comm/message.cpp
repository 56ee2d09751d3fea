#include "comm/message.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace fedvr::comm {

namespace {

constexpr std::uint8_t kMagic0 = 'F';
constexpr std::uint8_t kMagic1 = 'V';
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagSparse = 0x01;

// Offsets into the fixed header (see the layout table in message.h).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 2;
constexpr std::size_t kOffDType = 3;
constexpr std::size_t kOffFlags = 4;
constexpr std::size_t kOffDim = 8;
constexpr std::size_t kOffCount = 16;

void put_u64(std::span<std::uint8_t> buf, std::size_t off, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> buf, std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
  }
  return v;
}

void put_u32(std::span<std::uint8_t> buf, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t get_u32(std::span<const std::uint8_t> buf, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf[off + i]) << (8 * i);
  }
  return v;
}

// float32 values cross the wire via memcpy of the IEEE-754 bit pattern;
// fedvr targets little-endian only (as does the committed IDX loader).
void put_f32(std::span<std::uint8_t> buf, std::size_t off, float v) {
  std::memcpy(buf.data() + off, &v, 4);
}

float get_f32(std::span<const std::uint8_t> buf, std::size_t off) {
  float v;
  std::memcpy(&v, buf.data() + off, 4);
  return v;
}

void put_f64(std::span<std::uint8_t> buf, std::size_t off, double v) {
  std::memcpy(buf.data() + off, &v, 8);
}

double get_f64(std::span<const std::uint8_t> buf, std::size_t off) {
  double v;
  std::memcpy(&v, buf.data() + off, 8);
  return v;
}

bool valid_dtype(std::uint8_t tag) {
  return tag <= static_cast<std::uint8_t>(DType::kInt8Block);
}

// Serializes `values` into buf starting at `off` (payload_bytes worth).
void encode_values(std::span<const double> values, DType dtype,
                   std::span<std::uint8_t> buf, std::size_t off) {
  switch (dtype) {
    case DType::kFloat64:
      for (std::size_t i = 0; i < values.size(); ++i) {
        put_f64(buf, off + 8 * i, values[i]);
      }
      return;
    case DType::kFloat32:
      for (std::size_t i = 0; i < values.size(); ++i) {
        put_f32(buf, off + 4 * i, static_cast<float>(values[i]));
      }
      return;
    case DType::kInt8Block: {
      // ggml-style blocks: scale = max|block| / 127 as float32, then one
      // int8 per value. llround is round-half-away, deterministic across
      // platforms for these magnitudes (|q| <= 127 by construction of the
      // scale, with a clamp as belt and braces against float32 rounding).
      const std::size_t nblocks = (values.size() + kQuantBlock - 1) /
                                  kQuantBlock;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t lo = b * kQuantBlock;
        const std::size_t len = std::min(kQuantBlock, values.size() - lo);
        double amax = 0.0;
        for (std::size_t i = 0; i < len; ++i) {
          amax = std::max(amax, std::abs(values[lo + i]));
        }
        const float scale = static_cast<float>(amax / 127.0);
        const std::size_t boff = off + b * (4 + kQuantBlock);
        put_f32(buf, boff, scale);
        const double inv =
            scale > 0.0f ? 1.0 / static_cast<double>(scale) : 0.0;
        for (std::size_t i = 0; i < kQuantBlock; ++i) {
          const double v = i < len ? values[lo + i] : 0.0;
          const long q = std::lround(v * inv);
          buf[boff + 4 + i] = static_cast<std::uint8_t>(static_cast<int8_t>(
              std::clamp<long>(q, -127, 127)));
        }
      }
      return;
    }
  }
  FEDVR_CHECK_MSG(false, "unreachable: bad dtype");
}

void decode_values(std::span<const std::uint8_t> buf, std::size_t off,
                   DType dtype, std::span<double> out) {
  switch (dtype) {
    case DType::kFloat64:
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = get_f64(buf, off + 8 * i);
      }
      return;
    case DType::kFloat32:
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<double>(get_f32(buf, off + 4 * i));
      }
      return;
    case DType::kInt8Block: {
      const std::size_t nblocks =
          (out.size() + kQuantBlock - 1) / kQuantBlock;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t lo = b * kQuantBlock;
        const std::size_t len = std::min(kQuantBlock, out.size() - lo);
        const std::size_t boff = off + b * (4 + kQuantBlock);
        const double scale = static_cast<double>(get_f32(buf, boff));
        for (std::size_t i = 0; i < len; ++i) {
          out[lo + i] =
              scale * static_cast<double>(
                          static_cast<int8_t>(buf[boff + 4 + i]));
        }
      }
      return;
    }
  }
  FEDVR_CHECK_MSG(false, "unreachable: bad dtype");
}

std::vector<std::uint8_t> build(std::size_t dim,
                                std::span<const std::uint32_t> indices,
                                std::span<const double> values, DType dtype,
                                bool sparse) {
  const std::size_t total =
      wire_bytes(dtype, dim, values.size(), sparse);
  FEDVR_CHECK(total >= kHeaderBytes);  // so buf is never empty
  std::vector<std::uint8_t> buf(total, 0);
  buf[kOffMagic] = kMagic0;
  buf[kOffMagic + 1] = kMagic1;
  buf[kOffVersion] = kVersion;
  buf[kOffDType] = static_cast<std::uint8_t>(dtype);
  buf[kOffFlags] = sparse ? kFlagSparse : 0;
  put_u64(buf, kOffDim, dim);
  put_u64(buf, kOffCount, values.size());
  std::size_t off = kHeaderBytes;
  if (sparse) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      put_u32(buf, off + 4 * i, indices[i]);
    }
    off += 4 * indices.size();
  }
  encode_values(values, dtype, buf, off);
  return buf;
}

}  // namespace

std::string dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kFloat64:
      return "f64";
    case DType::kFloat32:
      return "f32";
    case DType::kInt8Block:
      return "q8";
  }
  return "unknown";
}

std::size_t payload_bytes(DType dtype, std::size_t count) {
  switch (dtype) {
    case DType::kFloat64:
      return count * 8;
    case DType::kFloat32:
      return count * 4;
    case DType::kInt8Block: {
      const std::size_t nblocks = (count + kQuantBlock - 1) / kQuantBlock;
      return nblocks * (4 + kQuantBlock);
    }
  }
  FEDVR_CHECK_MSG(false, "bad dtype tag "
                             << static_cast<unsigned>(dtype));
  return 0;
}

std::size_t wire_bytes(DType dtype, std::size_t dim, std::size_t count,
                       bool sparse) {
  FEDVR_CHECK_MSG(count <= dim, "count " << count << " exceeds dim " << dim);
  return kHeaderBytes + (sparse ? 4 * count : 0) +
         payload_bytes(dtype, count);
}

Message Message::encode_dense(std::span<const double> values, DType dtype) {
  FEDVR_CHECK_MSG(!values.empty(), "cannot encode an empty vector");
  return Message(build(values.size(), {}, values, dtype, /*sparse=*/false));
}

Message Message::encode_sparse(std::size_t dim,
                               std::span<const std::uint32_t> indices,
                               std::span<const double> values, DType dtype) {
  FEDVR_CHECK_MSG(indices.size() == values.size(),
                  "index/value size mismatch: " << indices.size() << " vs "
                                                << values.size());
  FEDVR_CHECK_MSG(dim <= std::numeric_limits<std::uint32_t>::max(),
                  "sparse indices are u32; dim " << dim << " overflows");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    FEDVR_CHECK_MSG(indices[i] < dim, "sparse index " << indices[i]
                                                      << " out of range");
    FEDVR_CHECK_MSG(i == 0 || indices[i] > indices[i - 1],
                    "sparse indices must be strictly ascending");
  }
  return Message(build(dim, indices, values, dtype, /*sparse=*/true));
}

Message Message::encode_nonzeros(std::span<const double> delta, DType dtype) {
  // Counted first so each buffer is allocated once.
  const auto kept = static_cast<std::size_t>(std::count_if(
      delta.begin(), delta.end(), [](double v) { return v != 0.0; }));
  std::vector<std::uint32_t> indices;
  std::vector<double> values;
  indices.reserve(kept);
  values.reserve(kept);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] != 0.0) {
      indices.push_back(static_cast<std::uint32_t>(i));
      values.push_back(delta[i]);
    }
  }
  return encode_sparse(delta.size(), indices, values, dtype);
}

Message Message::from_bytes(std::vector<std::uint8_t> bytes) {
  FEDVR_CHECK_MSG(bytes.size() >= kHeaderBytes,
                  "message truncated: " << bytes.size() << " bytes");
  FEDVR_CHECK_MSG(bytes[kOffMagic] == kMagic0 &&
                      bytes[kOffMagic + 1] == kMagic1,
                  "bad message magic");
  FEDVR_CHECK_MSG(bytes[kOffVersion] == kVersion,
                  "unsupported wire-format version "
                      << static_cast<unsigned>(bytes[kOffVersion]));
  FEDVR_CHECK_MSG(valid_dtype(bytes[kOffDType]),
                  "bad dtype tag " << static_cast<unsigned>(bytes[kOffDType]));
  FEDVR_CHECK_MSG((bytes[kOffFlags] & ~kFlagSparse) == 0,
                  "unknown message flags "
                      << static_cast<unsigned>(bytes[kOffFlags]));
  const auto dtype = static_cast<DType>(bytes[kOffDType]);
  const bool sparse = (bytes[kOffFlags] & kFlagSparse) != 0;
  const std::uint64_t dim = get_u64(bytes, kOffDim);
  const std::uint64_t count = get_u64(bytes, kOffCount);
  FEDVR_CHECK_MSG(dim > 0, "message dim must be positive");
  // Every encoded value takes at least one byte, so a count beyond the
  // bytes after the header is malformed. Checked before any size
  // arithmetic: a header count near 2^64 would wrap wire_bytes() around to
  // the buffer's real size.
  FEDVR_CHECK_MSG(count <= bytes.size() - kHeaderBytes,
                  "value count " << count << " exceeds the "
                                 << bytes.size() - kHeaderBytes
                                 << " bytes after the header");
  FEDVR_CHECK_MSG(!sparse || dim <= std::numeric_limits<std::uint32_t>::max(),
                  "sparse indices are u32; dim " << dim << " overflows");
  FEDVR_CHECK_MSG(sparse ? count <= dim : count == dim,
                  "bad value count " << count << " for dim " << dim);
  FEDVR_CHECK_MSG(bytes.size() == wire_bytes(dtype, dim, count, sparse),
                  "message size " << bytes.size() << " does not match header"
                                  << " (expected "
                                  << wire_bytes(dtype, dim, count, sparse)
                                  << ")");
  if (sparse) {
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t idx = get_u32(bytes, kHeaderBytes + 4 * i);
      FEDVR_CHECK_MSG(idx < dim, "sparse index " << idx << " out of range");
      FEDVR_CHECK_MSG(i == 0 || idx > prev,
                      "sparse indices must be strictly ascending");
      prev = idx;
    }
  }
  return Message(std::move(bytes));
}

void Message::decode(std::span<double> out) const {
  FEDVR_CHECK_MSG(out.size() == dim(),
                  "decode buffer size " << out.size() << " != dim " << dim());
  const std::size_t n = count();
  if (!sparse()) {
    decode_values(bytes_, kHeaderBytes, dtype(), out);
    return;
  }
  // Sparse: decode the packed values, then scatter; untouched coordinates
  // are zero (the server's reconstruction of a sparsified update).
  std::fill(out.begin(), out.end(), 0.0);
  std::vector<double> packed(n);
  decode_values(bytes_, kHeaderBytes + 4 * n, dtype(), packed);
  for (std::size_t i = 0; i < n; ++i) {
    out[get_u32(bytes_, kHeaderBytes + 4 * i)] = packed[i];
  }
}

DType Message::dtype() const { return static_cast<DType>(bytes_[kOffDType]); }

bool Message::sparse() const {
  return (bytes_[kOffFlags] & kFlagSparse) != 0;
}

std::size_t Message::dim() const { return get_u64(bytes_, kOffDim); }

std::size_t Message::count() const { return get_u64(bytes_, kOffCount); }

}  // namespace fedvr::comm
