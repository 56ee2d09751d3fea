#include "data/procedural_images.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "check/check.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::data {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

class RenderAllClasses
    : public ::testing::TestWithParam<std::tuple<ImageFamily, int>> {};

TEST_P(RenderAllClasses, ProducesInkInRange) {
  const auto [family, label] = GetParam();
  ProceduralImageConfig cfg;
  cfg.family = family;
  Rng rng(7);
  std::vector<double> img(cfg.side * cfg.side);
  render_procedural_image(cfg, label, rng, img);
  double total = 0.0;
  for (double p : img) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    total += p;
  }
  // Every glyph must deposit a visible amount of ink but not flood the
  // canvas.
  EXPECT_GT(total, 10.0);
  EXPECT_LT(total, 0.8 * static_cast<double>(img.size()));
}

INSTANTIATE_TEST_SUITE_P(
    BothFamiliesAllLabels, RenderAllClasses,
    ::testing::Combine(::testing::Values(ImageFamily::kDigits,
                                         ImageFamily::kFashion),
                       ::testing::Range(0, 10)));

TEST(ProceduralImages, ClassesAreVisuallyDistinct) {
  // Noise-free class prototypes must differ pairwise by a healthy margin,
  // otherwise the classification task would be ill-posed.
  ProceduralImageConfig cfg;
  cfg.noise_stddev = 0.0;
  cfg.max_shift = 0.0;
  cfg.max_rotate = 0.0;
  cfg.min_scale = 1.0;
  cfg.max_scale = 1.0;
  cfg.max_shear = 0.0;
  const std::size_t n = cfg.side * cfg.side;
  std::vector<std::vector<double>> protos;
  for (int c = 0; c < 10; ++c) {
    Rng rng(1);
    std::vector<double> img(n);
    render_procedural_image(cfg, c, rng, img);
    protos.push_back(std::move(img));
  }
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      const double d2 = tensor::squared_distance(protos[static_cast<std::size_t>(a)],
                                                 protos[static_cast<std::size_t>(b)]);
      EXPECT_GT(d2, 1.0) << "classes " << a << " and " << b
                         << " are nearly identical";
    }
  }
}

TEST(ProceduralImages, SamplesOfSameClassVary) {
  ProceduralImageConfig cfg;
  Rng rng(3);
  std::vector<double> a(cfg.side * cfg.side), b(cfg.side * cfg.side);
  render_procedural_image(cfg, 4, rng, a);
  render_procedural_image(cfg, 4, rng, b);
  EXPECT_GT(tensor::squared_distance(a, b), 0.1);
}

TEST(ProceduralImages, RenderIsDeterministicInRngState) {
  ProceduralImageConfig cfg;
  Rng r1(9), r2(9);
  std::vector<double> a(cfg.side * cfg.side), b(cfg.side * cfg.side);
  render_procedural_image(cfg, 2, r1, a);
  render_procedural_image(cfg, 2, r2, b);
  EXPECT_EQ(a, b);
}

TEST(ProceduralImages, InvalidLabelThrows) {
  ProceduralImageConfig cfg;
  Rng rng(1);
  std::vector<double> img(cfg.side * cfg.side);
  EXPECT_THROW(render_procedural_image(cfg, 10, rng, img), Error);
  EXPECT_THROW(render_procedural_image(cfg, -1, rng, img), Error);
}

TEST(ProceduralImages, WrongBufferSizeThrows) {
  ProceduralImageConfig cfg;
  Rng rng(1);
  std::vector<double> img(10);
  EXPECT_THROW(render_procedural_image(cfg, 0, rng, img), Error);
}

TEST(ProceduralImages, InvalidConfigThrows) {
  // Always-on checks: these also throw with -DFEDVR_CHECKS=OFF. A zero pen
  // used to render NaN pixels and a zero scale blank ones.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Config = ProceduralImageConfig;
  const std::pair<double Config::*, double> bad_values[] = {
      {&Config::stroke_width, 0.0},  {&Config::stroke_width, -0.05},
      {&Config::stroke_width, kNan}, {&Config::stroke_width, kInf},
      {&Config::noise_stddev, -0.5}, {&Config::noise_stddev, kNan},
      {&Config::min_scale, 0.0},     {&Config::min_scale, 1.2},  // > max
      {&Config::min_scale, kNan},    {&Config::max_scale, kInf},
      {&Config::max_shift, -0.1},    {&Config::max_shift, kInf},
      {&Config::max_rotate, -0.2},   {&Config::max_rotate, kNan},
      {&Config::max_shear, -0.1},    {&Config::max_shear, kInf},
  };
  std::vector<Config> configs;
  for (const auto& [field, value] : bad_values) {
    configs.emplace_back().*field = value;
  }
  configs.emplace_back().side = 0;
  EXPECT_NO_THROW(Config{}.validate());
  for (std::size_t k = 0; k < configs.size(); ++k) {
    SCOPED_TRACE(k);
    const Config& cfg = configs[k];
    EXPECT_THROW(cfg.validate(), Error);
    Rng rng(1);
    std::vector<double> img(cfg.side * cfg.side);
    EXPECT_THROW(render_procedural_image(cfg, 0, rng, img), Error);
    EXPECT_THROW((void)make_procedural_pool(cfg, 4, 1), Error);
    EXPECT_THROW((void)make_procedural_pool_balanced(cfg, 1, 1), Error);
  }
}

TEST(ProceduralImages, SupportsSmallerCanvas) {
  ProceduralImageConfig cfg;
  cfg.side = 14;
  Rng rng(5);
  std::vector<double> img(14 * 14);
  render_procedural_image(cfg, 7, rng, img);
  double total = 0.0;
  for (double p : img) total += p;
  EXPECT_GT(total, 2.0);
}

TEST(ProceduralPool, UniformPoolHasAllClasses) {
  ProceduralImageConfig cfg;
  cfg.side = 14;
  const Dataset pool = make_procedural_pool(cfg, 500, 11);
  EXPECT_EQ(pool.size(), 500u);
  EXPECT_EQ(pool.num_classes(), 10u);
  const auto hist = pool.class_histogram();
  for (auto h : hist) EXPECT_GT(h, 20u);
}

TEST(ProceduralPool, BalancedPoolIsExactlyBalanced) {
  ProceduralImageConfig cfg;
  cfg.side = 14;
  const Dataset pool = make_procedural_pool_balanced(cfg, 12, 13);
  EXPECT_EQ(pool.size(), 120u);
  for (auto h : pool.class_histogram()) EXPECT_EQ(h, 12u);
}

TEST(ProceduralPool, SampleShapeIsCHW) {
  ProceduralImageConfig cfg;
  const Dataset pool = make_procedural_pool(cfg, 3, 1);
  EXPECT_EQ(pool.sample_shape(), tensor::Shape({1, 28, 28}));
}

std::uint64_t label_hash(const Dataset& pool) {
  std::vector<double> labels(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    labels[i] = static_cast<double>(pool.label(i));
  }
  return check::hash_span(labels);
}

std::uint64_t feature_hash(const Dataset& pool) {
  return check::hash_span(pool.rows(0, pool.size()));
}

// Literal hashes of small pools at several pen reaches and canvas sizes, in
// both families. They pin every pixel's arithmetic (class geometry, reach
// culling, affine transform, noise draws) and every label draw. The
// balanced pools draw every class; the pools stay small so that the
// sanitizer legs stay fast.
//
// Unlike trace_pin_test, these pixels go through libm: std::cos/std::sin
// (arc geometry, rotation), std::hypot (every distance) and the log, sin and
// cos of util::Rng's Box–Muller noise. The literals were recorded with glibc
// 2.36 on x86-64, where they hold at every optimization level and under the
// sanitizers; a libm that rounds any of those differently changes them with
// no code change. IdenticalAtEveryPoolSizeAndToASerialLoop below is the
// check that does not depend on libm.
struct PoolPin {
  const char* name;
  ImageFamily family;
  std::size_t side;
  double stroke_width;
  std::size_t n;  // images; per class for the balanced pools
  bool balanced;
  std::uint64_t seed;
  std::uint64_t features;
  std::uint64_t labels;
};

constexpr auto kDigits = ImageFamily::kDigits;
constexpr auto kFashion = ImageFamily::kFashion;

const PoolPin kPoolPins[] = {
    {"digits", kDigits, 28, 0.055, 40, false, 7,
     0x301e1f893fd0094eULL, 0xa1cf367daec6113cULL},
    {"fashion", kFashion, 28, 0.055, 40, false, 7,
     0x5dbb21506f6031e6ULL, 0xa1cf367daec6113cULL},
    {"digits_thin", kDigits, 28, 0.02, 3, true, 11,
     0xcac9d585e45465e7ULL, 0x9940630939f0ae96ULL},
    {"fashion_thin", kFashion, 28, 0.02, 3, true, 11,
     0x29d171f4b24573e8ULL, 0x9940630939f0ae96ULL},
    {"digits_bold", kDigits, 28, 0.15, 3, true, 21,
     0x04730c41ba8f3a14ULL, 0x9940630939f0ae96ULL},
    {"fashion_bold", kFashion, 28, 0.15, 3, true, 21,
     0xd0f1287239e60c33ULL, 0x9940630939f0ae96ULL},
    {"digits_14", kDigits, 14, 0.055, 3, true, 1101,
     0x85851b5278280e08ULL, 0x9940630939f0ae96ULL},
    {"fashion_14", kFashion, 14, 0.055, 3, true, 1101,
     0x0545694eb68e644cULL, 0x9940630939f0ae96ULL},
    {"digits_56", kDigits, 56, 0.055, 1, true, 5,
     0x0f68b30c4573bb7fULL, 0x44c47145b6c11fe2ULL},
    {"fashion_56", kFashion, 56, 0.055, 1, true, 5,
     0xd6e618025b84b00eULL, 0x44c47145b6c11fe2ULL},
};

TEST(ProceduralPool, PinnedBits) {
  for (const PoolPin& pin : kPoolPins) {
    SCOPED_TRACE(pin.name);
    ProceduralImageConfig cfg;
    cfg.family = pin.family;
    cfg.side = pin.side;
    cfg.stroke_width = pin.stroke_width;
    const Dataset pool =
        pin.balanced ? make_procedural_pool_balanced(cfg, pin.n, pin.seed)
                     : make_procedural_pool(cfg, pin.n, pin.seed);
    EXPECT_EQ(feature_hash(pool), pin.features);
    EXPECT_EQ(label_hash(pool), pin.labels);
  }
}

// The documented streams, rendered serially: image i of class labels[i]
// from fork(seed, i + 1, 0, kData).
Dataset serial_pool(const ProceduralImageConfig& cfg,
                    const std::vector<int>& labels, std::uint64_t seed) {
  Dataset out(tensor::Shape({1, cfg.side, cfg.side}), labels.size(), 10);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Rng rng = util::fork(seed, i + 1, 0, util::stream::kData);
    render_procedural_image(cfg, labels[i], rng, out.mutable_sample(i));
    out.set_label(i, labels[i]);
  }
  return out;
}

// Both builders render on the global thread pool, each image from its own
// stream into its own row, so a pool is the same at every pool size and
// equals the serial loop. The uniform pool draws its labels from
// fork(seed, 0, 0, kData) in index order; the balanced pool's are i % 10.
TEST(ProceduralPool, IdenticalAtEveryPoolSizeAndToASerialLoop) {
  ProceduralImageConfig cfg;
  cfg.side = 14;
  constexpr std::uint64_t kSeed = 21;
  std::vector<int> uniform(37);
  Rng label_rng = util::fork(kSeed, 0, 0, util::stream::kData);
  for (int& y : uniform) y = static_cast<int>(label_rng.below(10));
  std::vector<int> balanced(20);
  for (std::size_t i = 0; i < balanced.size(); ++i) {
    balanced[i] = static_cast<int>(i % 10);
  }
  for (const ImageFamily family : {kDigits, kFashion}) {
    cfg.family = family;
    const Dataset want_uniform = serial_pool(cfg, uniform, kSeed);
    const Dataset want_balanced = serial_pool(cfg, balanced, kSeed);
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      util::ThreadPool::reset_global(threads);
      const Dataset pool = make_procedural_pool(cfg, uniform.size(), kSeed);
      EXPECT_EQ(feature_hash(pool), feature_hash(want_uniform));
      EXPECT_EQ(label_hash(pool), label_hash(want_uniform));
      const Dataset even = make_procedural_pool_balanced(cfg, 2, kSeed);
      EXPECT_EQ(feature_hash(even), feature_hash(want_balanced));
      EXPECT_EQ(label_hash(even), label_hash(want_balanced));
    }
  }
  util::ThreadPool::reset_global(0);
}

}  // namespace
}  // namespace fedvr::data
