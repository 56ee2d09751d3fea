#include "nn/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "nn/models.h"
#include "testing/temp_dir.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fedvr::testing::make_temp_dir("fedvr_ckpt_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, RoundTripsExactDoubles) {
  const std::vector<double> w = {0.0, -1.5, 3.14159265358979,
                                 1e-300, 1e300, -0.0};
  save_parameters(path("a.ckpt"), w);
  const auto loaded = load_parameters(path("a.ckpt"));
  ASSERT_EQ(loaded.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(loaded[i], w[i]) << i;  // bit-exact
  }
}

TEST_F(CheckpointTest, RoundTripsEmptyVector) {
  save_parameters(path("empty.ckpt"), std::vector<double>{});
  EXPECT_TRUE(load_parameters(path("empty.ckpt")).empty());
}

TEST_F(CheckpointTest, RoundTripsRealModelParameters) {
  const auto model = make_logistic_regression(30, 10);
  Rng rng(3);
  const auto w = model->initial_parameters(rng);
  save_parameters(path("model.ckpt"), w);
  const auto loaded =
      load_parameters(path("model.ckpt"), model->num_parameters());
  EXPECT_EQ(loaded, w);
}

TEST_F(CheckpointTest, CountMismatchThrows) {
  save_parameters(path("b.ckpt"), std::vector<double>{1.0, 2.0});
  EXPECT_THROW((void)load_parameters(path("b.ckpt"), 3), Error);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW((void)load_parameters(path("missing.ckpt")), Error);
}

TEST_F(CheckpointTest, BadMagicThrows) {
  {
    std::ofstream out(path("junk.ckpt"), std::ios::binary);
    out << "this is definitely not a checkpoint file at all";
  }
  EXPECT_THROW((void)load_parameters(path("junk.ckpt")), Error);
}

TEST_F(CheckpointTest, TruncatedDataThrows) {
  save_parameters(path("c.ckpt"), std::vector<double>(10, 1.0));
  std::filesystem::resize_file(path("c.ckpt"), 40);  // cut into the payload
  EXPECT_THROW((void)load_parameters(path("c.ckpt")), Error);
}

// A header whose parameter count the file cannot hold must throw before
// anything is sized from it: 2^61 + 1 doubles is past vector::max_size(),
// and payload + 1 is one more than the bytes that follow.
TEST_F(CheckpointTest, HeaderCountBeyondTheFileThrows) {
  const auto write = [&](const std::string& name, std::uint64_t count,
                         std::size_t payload) {
    std::ofstream out(path(name), std::ios::binary);
    const std::uint64_t magic = 0x46564452'43503031ULL;  // "FVDRCP01"
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    const std::vector<double> w(payload, 1.0);
    out.write(reinterpret_cast<const char*>(w.data()),
              static_cast<std::streamsize>(w.size() * sizeof(double)));
  };
  write("huge.ckpt", (std::uint64_t{1} << 61) + 1, 1);
  EXPECT_THROW((void)load_parameters(path("huge.ckpt")), Error);
  write("plus_one.ckpt", 4, 3);
  EXPECT_THROW((void)load_parameters(path("plus_one.ckpt")), Error);
  write("exact.ckpt", 3, 3);
  EXPECT_EQ(load_parameters(path("exact.ckpt")), std::vector<double>(3, 1.0));
}

TEST_F(CheckpointTest, TrailingGarbageThrows) {
  save_parameters(path("d.ckpt"), std::vector<double>{1.0});
  {
    std::ofstream out(path("d.ckpt"), std::ios::binary | std::ios::app);
    out << "x";
  }
  EXPECT_THROW((void)load_parameters(path("d.ckpt")), Error);
}

}  // namespace
}  // namespace fedvr::nn
