// Procedural MNIST / Fashion-MNIST substitutes.
//
// The paper evaluates on MNIST and Fashion-MNIST, which cannot be downloaded
// in this offline environment. These generators produce the closest
// synthetic equivalent that exercises the same code paths: 10-class 28x28
// grayscale images with genuine intra-class variation.
//
// Each class is a small vector drawing (line segments, ellipse arcs, filled
// boxes) in a normalized [0,1]^2 canvas: digit glyphs for "mnist", garment
// silhouettes for "fashion". A sample is rendered by pushing the class
// drawing through a random affine transform (shift, rotation, scale, shear),
// stroking with a soft pen, and adding pixel noise — so a linear model
// reaches high-but-not-perfect accuracy and a CNN does better, mirroring the
// real datasets' qualitative behaviour (see DESIGN.md §3).
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedvr::data {

enum class ImageFamily { kDigits, kFashion };

struct ProceduralImageConfig {
  ImageFamily family = ImageFamily::kDigits;
  std::size_t side = 28;          // square image side (28 matches MNIST)
  double max_shift = 0.08;        // fraction of canvas
  double max_rotate = 0.20;       // radians (~11.5 degrees)
  double min_scale = 0.85;
  double max_scale = 1.15;
  double max_shear = 0.12;
  double stroke_width = 0.055;    // pen radius as fraction of canvas
  double noise_stddev = 0.06;     // additive Gaussian pixel noise

  /// Always-on validation (every build configuration): side >= 1,
  /// stroke_width > 0, noise_stddev >= 0, 0 < min_scale <= max_scale,
  /// max_shift, max_rotate and max_shear >= 0, and every value finite.
  /// Throws util::Error. The renderer and both pool builders call it.
  void validate() const;
};

/// Renders one sample of class `label` (0..9) into `pixels`
/// (side*side doubles in [0,1], row-major). Deterministic in `rng`.
void render_procedural_image(const ProceduralImageConfig& config, int label,
                             util::Rng& rng, std::span<double> pixels);

/// Generates a pooled dataset of `n` samples with labels drawn uniformly
/// (in index order, from fork(seed, 0, 0, kData)). Image i is rendered from
/// its own stream, fork(seed, i + 1, 0, kData), on the global thread pool;
/// the result is the same at every pool size.
[[nodiscard]] Dataset make_procedural_pool(const ProceduralImageConfig& config,
                                           std::size_t n, std::uint64_t seed);

/// Generates a pooled dataset with exactly `per_class` samples per class
/// (label i % 10 at index i; useful for partitioners that shard by label),
/// rendered as make_procedural_pool renders its images.
[[nodiscard]] Dataset make_procedural_pool_balanced(
    const ProceduralImageConfig& config, std::size_t per_class,
    std::uint64_t seed);

}  // namespace fedvr::data
