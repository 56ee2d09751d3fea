#include "data/idx_loader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "testing/temp_dir.h"
#include "util/error.h"

namespace fedvr::data {
namespace {

using fedvr::util::Error;

void write_be32(std::ofstream& out, std::uint32_t v) {
  const unsigned char bytes[4] = {
      static_cast<unsigned char>(v >> 24),
      static_cast<unsigned char>(v >> 16),
      static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v)};
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

class IdxLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::make_temp_dir("fedvr_idx_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Writes a valid 2-image 3x2 IDX pair with ramp pixel data.
  void write_valid_pair(const std::string& img, const std::string& lbl) {
    {
      std::ofstream out(path(img), std::ios::binary);
      write_be32(out, 0x803);
      write_be32(out, 2);   // images
      write_be32(out, 3);   // rows
      write_be32(out, 2);   // cols
      for (int i = 0; i < 12; ++i) out.put(static_cast<char>(i * 20));
    }
    {
      std::ofstream out(path(lbl), std::ios::binary);
      write_be32(out, 0x801);
      write_be32(out, 2);
      out.put(static_cast<char>(7));
      out.put(static_cast<char>(0));
    }
  }

  std::filesystem::path dir_;
};

TEST_F(IdxLoaderTest, LoadsValidPair) {
  write_valid_pair("img", "lbl");
  const Dataset d = load_idx(path("img"), path("lbl"));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.sample_shape(), tensor::Shape({1, 3, 2}));
  EXPECT_EQ(d.label(0), 7);
  EXPECT_EQ(d.label(1), 0);
  EXPECT_DOUBLE_EQ(d.sample(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(d.sample(0)[1], 20.0 / 255.0);
  EXPECT_DOUBLE_EQ(d.sample(1)[0], 120.0 / 255.0);
}

TEST_F(IdxLoaderTest, AvailabilityCheck) {
  write_valid_pair("img", "lbl");
  EXPECT_TRUE(idx_pair_available(path("img"), path("lbl")));
  EXPECT_FALSE(idx_pair_available(path("missing"), path("lbl")));
  EXPECT_FALSE(idx_pair_available(path("lbl"), path("img")));  // swapped
}

TEST_F(IdxLoaderTest, MissingFileThrows) {
  EXPECT_THROW((void)load_idx(path("nope"), path("nope2")), Error);
}

TEST_F(IdxLoaderTest, WrongMagicThrows) {
  write_valid_pair("img", "lbl");
  EXPECT_THROW((void)load_idx(path("lbl"), path("img")), Error);
}

TEST_F(IdxLoaderTest, CountMismatchThrows) {
  write_valid_pair("img", "lbl");
  {
    std::ofstream out(path("lbl3"), std::ios::binary);
    write_be32(out, 0x801);
    write_be32(out, 3);  // three labels for two images
    out.put(static_cast<char>(1));
    out.put(static_cast<char>(2));
    out.put(static_cast<char>(3));
  }
  EXPECT_THROW((void)load_idx(path("img"), path("lbl3")), Error);
}

TEST_F(IdxLoaderTest, TruncatedImageDataThrows) {
  {
    std::ofstream out(path("img_trunc"), std::ios::binary);
    write_be32(out, 0x803);
    write_be32(out, 2);
    write_be32(out, 3);
    write_be32(out, 2);
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(i));  // 12 needed
  }
  {
    std::ofstream out(path("lbl2"), std::ios::binary);
    write_be32(out, 0x801);
    write_be32(out, 2);
    out.put(static_cast<char>(0));
    out.put(static_cast<char>(1));
  }
  EXPECT_THROW((void)load_idx(path("img_trunc"), path("lbl2")), Error);
}

// Header counts the files cannot hold must throw before anything is sized
// from them. The last pair declares 2^32 - 1 images of 65536 x 65536, past
// vector::max_size() doubles.
TEST_F(IdxLoaderTest, HeaderCountsBeyondTheFilesThrow) {
  const auto write_pair = [&](const std::string& name, std::uint32_t n,
                              std::uint32_t rows, std::uint32_t cols,
                              int pixel_bytes, int label_bytes) {
    {
      std::ofstream out(path(name + ".img"), std::ios::binary);
      write_be32(out, 0x803);
      write_be32(out, n);
      write_be32(out, rows);
      write_be32(out, cols);
      for (int i = 0; i < pixel_bytes; ++i) out.put(static_cast<char>(i));
    }
    std::ofstream out(path(name + ".lbl"), std::ios::binary);
    write_be32(out, 0x801);
    write_be32(out, n);
    for (int i = 0; i < label_bytes; ++i) out.put(static_cast<char>(i % 10));
  };
  const auto load = [&](const std::string& name) {
    return load_idx(path(name + ".img"), path(name + ".lbl"));
  };
  write_pair("images", 1000, 28, 28, 784, 1000);  // 1 of 1000 images
  EXPECT_THROW((void)load("images"), Error);
  write_pair("labels", 3, 2, 2, 12, 2);  // 2 of 3 labels
  EXPECT_THROW((void)load("labels"), Error);
  write_pair("huge", 0xFFFFFFFFu, 65536, 65536, 16, 16);
  EXPECT_THROW((void)load("huge"), Error);
  write_pair("exact", 3, 2, 2, 12, 3);
  EXPECT_EQ(load("exact").size(), 3U);
}

}  // namespace
}  // namespace fedvr::data
