#include "data/procedural_images.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/thread_pool.h"

namespace fedvr::data {

namespace {

// ---- Vector-drawing primitives in the normalized [0,1]^2 canvas. ----

struct Rect {  // axis-aligned, x0 <= x1 and y0 <= y1
  double x0, y0, x1, y1;
};

struct Segment {
  double x0, y0, x1, y1;
  Rect bounds;
};

struct Drawing {
  std::vector<Segment> segments;  // strokes; arcs are stored as polylines
  std::vector<Rect> boxes;        // filled rectangles
};

void add_segment(Drawing& d, double x0, double y0, double x1, double y1) {
  d.segments.push_back({x0, y0, x1, y1,
                        {std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                         std::max(y0, y1)}});
}

// Ellipse arc, angles in radians, CCW from +x axis, as a 24-segment
// polyline (plenty at 28x28). Built once per class, when the drawings are
// cached.
void add_arc(Drawing& d, double cx, double cy, double rx, double ry,
             double a0, double a1) {
  constexpr int kSteps = 24;
  double prev_x = 0.0, prev_y = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double t = a0 + (a1 - a0) * i / kSteps;
    const double x = cx + rx * std::cos(t);
    const double y = cy + ry * std::sin(t);
    if (i > 0) add_segment(d, prev_x, prev_y, x, y);
    prev_x = x;
    prev_y = y;
  }
}

double dist_to_segment(double px, double py, const Segment& s) {
  const double dx = s.x1 - s.x0;
  const double dy = s.y1 - s.y0;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((px - s.x0) * dx + (py - s.y0) * dy) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double qx = s.x0 + t * dx;
  const double qy = s.y0 + t * dy;
  return std::hypot(px - qx, py - qy);
}

double dist_outside_box(double px, double py, const Rect& b) {
  const double dx = std::max({b.x0 - px, 0.0, px - b.x1});
  const double dy = std::max({b.y0 - py, 0.0, py - b.y1});
  return std::hypot(dx, dy);
}

// "Ink" at a canvas point: 1 inside a stroke, soft anti-aliased edge.
//
// The falloff is exactly +0 at every distance d >= 2 pen ((d - pen) / pen
// rounds to >= 1), and at the 1e9 start value. So a primitive whose bounding
// box lies more than 2 pen + 1e-9 from the point along x or y is skipped:
// its computed distance exceeds 2 pen (the projection and hypot err by
// ~1e-16 in these O(1) coordinates, far below the margin), so it is never
// the minimum while the minimum is below 2 pen, and the ink is +0 either way
// otherwise. The minimum over the rest is the same value in any order.
double ink_at(const Drawing& d, double px, double py, double pen) {
  const double reach = 2.0 * pen + 1e-9;
  const auto out_of_reach = [&](const Rect& b) {
    return px < b.x0 - reach || px > b.x1 + reach || py < b.y0 - reach ||
           py > b.y1 + reach;
  };
  double dist = 1e9;
  for (const auto& s : d.segments) {
    if (out_of_reach(s.bounds)) continue;
    dist = std::min(dist, dist_to_segment(px, py, s));
  }
  for (const auto& b : d.boxes) {
    if (out_of_reach(b)) continue;
    dist = std::min(dist, dist_outside_box(px, py, b));
  }
  // Smoothstep falloff over one pen radius.
  const double t = std::clamp(1.0 - (dist - pen) / pen, 0.0, 1.0);
  return t * t * (3.0 - 2.0 * t);
}

// ---- Class drawings. Canvas: x right, y DOWN (image convention), glyphs
// centred in [0.2, 0.8]. ----

constexpr double kPi = std::numbers::pi;

Drawing digit_drawing(int label) {
  Drawing d;
  auto seg = [&d](double x0, double y0, double x1, double y1) {
    add_segment(d, x0, y0, x1, y1);
  };
  auto arc = [&d](double cx, double cy, double rx, double ry, double a0,
                  double a1) { add_arc(d, cx, cy, rx, ry, a0, a1); };
  switch (label) {
    case 0:
      arc(0.5, 0.5, 0.20, 0.28, 0.0, 2.0 * kPi);
      break;
    case 1:
      seg(0.5, 0.22, 0.5, 0.78);
      seg(0.40, 0.32, 0.5, 0.22);
      break;
    case 2:
      arc(0.5, 0.37, 0.18, 0.15, -kPi, 0.35);
      seg(0.66, 0.43, 0.33, 0.78);
      seg(0.33, 0.78, 0.70, 0.78);
      break;
    case 3:
      arc(0.48, 0.37, 0.16, 0.14, -kPi * 0.9, kPi * 0.5);
      arc(0.48, 0.64, 0.18, 0.15, -kPi * 0.5, kPi * 0.9);
      break;
    case 4:
      seg(0.60, 0.22, 0.60, 0.78);
      seg(0.60, 0.22, 0.33, 0.58);
      seg(0.33, 0.58, 0.72, 0.58);
      break;
    case 5:
      seg(0.68, 0.24, 0.38, 0.24);
      seg(0.38, 0.24, 0.36, 0.50);
      arc(0.50, 0.62, 0.17, 0.15, -kPi * 0.55, kPi * 0.75);
      break;
    case 6:
      arc(0.50, 0.62, 0.17, 0.15, 0.0, 2.0 * kPi);
      arc(0.56, 0.40, 0.23, 0.30, kPi * 0.75, kPi * 1.35);
      break;
    case 7:
      seg(0.32, 0.24, 0.70, 0.24);
      seg(0.70, 0.24, 0.44, 0.78);
      break;
    case 8:
      arc(0.5, 0.36, 0.14, 0.12, 0.0, 2.0 * kPi);
      arc(0.5, 0.64, 0.17, 0.14, 0.0, 2.0 * kPi);
      break;
    case 9:
      arc(0.50, 0.38, 0.16, 0.14, 0.0, 2.0 * kPi);
      arc(0.44, 0.58, 0.23, 0.28, -kPi * 0.35, kPi * 0.30);
      break;
    default:
      FEDVR_CHECK_MSG(false, "digit label must be 0..9, got " << label);
  }
  return d;
}

Drawing fashion_drawing(int label) {
  Drawing d;
  auto seg = [&d](double x0, double y0, double x1, double y1) {
    add_segment(d, x0, y0, x1, y1);
  };
  auto box = [&d](double x0, double y0, double x1, double y1) {
    d.boxes.push_back({x0, y0, x1, y1});
  };
  auto arc = [&d](double cx, double cy, double rx, double ry, double a0,
                  double a1) { add_arc(d, cx, cy, rx, ry, a0, a1); };
  switch (label) {
    case 0:  // t-shirt: torso box + short sleeves
      box(0.38, 0.32, 0.62, 0.74);
      box(0.24, 0.32, 0.38, 0.46);
      box(0.62, 0.32, 0.76, 0.46);
      break;
    case 1:  // trouser: two legs
      box(0.38, 0.26, 0.48, 0.78);
      box(0.52, 0.26, 0.62, 0.78);
      box(0.38, 0.26, 0.62, 0.38);
      break;
    case 2:  // pullover: torso + long sleeves angled
      box(0.38, 0.30, 0.62, 0.74);
      seg(0.36, 0.34, 0.22, 0.66);
      seg(0.64, 0.34, 0.78, 0.66);
      break;
    case 3:  // dress: narrow top flaring to wide hem
      seg(0.46, 0.24, 0.34, 0.78);
      seg(0.54, 0.24, 0.66, 0.78);
      seg(0.34, 0.78, 0.66, 0.78);
      seg(0.46, 0.24, 0.54, 0.24);
      break;
    case 4:  // coat: open front, long body
      box(0.36, 0.28, 0.48, 0.78);
      box(0.52, 0.28, 0.64, 0.78);
      seg(0.34, 0.32, 0.24, 0.60);
      seg(0.66, 0.32, 0.76, 0.60);
      break;
    case 5:  // sandal: sole + straps
      seg(0.26, 0.62, 0.74, 0.62);
      seg(0.26, 0.68, 0.74, 0.68);
      seg(0.36, 0.62, 0.46, 0.44);
      seg(0.56, 0.62, 0.50, 0.44);
      break;
    case 6:  // shirt: torso + collar + straight sleeves
      box(0.40, 0.30, 0.60, 0.76);
      box(0.26, 0.30, 0.40, 0.42);
      box(0.60, 0.30, 0.74, 0.42);
      seg(0.46, 0.30, 0.50, 0.38);
      seg(0.54, 0.30, 0.50, 0.38);
      break;
    case 7:  // sneaker: low profile with toe curve
      seg(0.24, 0.66, 0.76, 0.66);
      seg(0.24, 0.56, 0.24, 0.66);
      seg(0.24, 0.56, 0.52, 0.56);
      arc(0.52, 0.66, 0.24, 0.10, -kPi * 0.5, 0.0);
      break;
    case 8:  // bag: body + handle arc
      box(0.32, 0.46, 0.68, 0.74);
      arc(0.50, 0.46, 0.12, 0.12, -kPi, 0.0);
      break;
    case 9:  // ankle boot: tall shaft + foot
      box(0.40, 0.30, 0.54, 0.64);
      box(0.40, 0.58, 0.72, 0.70);
      break;
    default:
      FEDVR_CHECK_MSG(false, "fashion label must be 0..9, got " << label);
  }
  return d;
}

const Drawing& class_drawing(ImageFamily family, int label) {
  // Drawings are immutable after first construction; cache all 20.
  static const std::vector<Drawing> digits = [] {
    std::vector<Drawing> v;
    for (int c = 0; c < 10; ++c) v.push_back(digit_drawing(c));
    return v;
  }();
  static const std::vector<Drawing> fashion = [] {
    std::vector<Drawing> v;
    for (int c = 0; c < 10; ++c) v.push_back(fashion_drawing(c));
    return v;
  }();
  FEDVR_CHECK_MSG(label >= 0 && label < 10,
                  "class label must be 0..9, got " << label);
  return family == ImageFamily::kDigits
             ? digits[static_cast<std::size_t>(label)]
             : fashion[static_cast<std::size_t>(label)];
}

// Renders every image of `out`, whose labels are set, on the global pool:
// image i from its own stream fork(seed, i + 1, 0, kData) into its own row,
// so the pool is the same at every pool size.
void render_pool(const ProceduralImageConfig& config, std::uint64_t seed,
                 Dataset& out) {
  util::ThreadPool::global().parallel_for(0, out.size(), [&](std::size_t i) {
    util::Rng rng = util::fork(seed, i + 1, 0, util::stream::kData);
    render_procedural_image(config, out.label(i), rng, out.mutable_sample(i));
  });
}

}  // namespace

void ProceduralImageConfig::validate() const {
  FEDVR_CHECK_MSG(side >= 1, "side must be >= 1, got " << side);
  FEDVR_CHECK_MSG(std::isfinite(stroke_width) && stroke_width > 0.0,
                  "stroke_width must be finite and > 0, got " << stroke_width);
  FEDVR_CHECK_MSG(std::isfinite(noise_stddev) && noise_stddev >= 0.0,
                  "noise_stddev must be finite and >= 0, got "
                      << noise_stddev);
  FEDVR_CHECK_MSG(std::isfinite(min_scale) && std::isfinite(max_scale) &&
                      min_scale > 0.0 && min_scale <= max_scale,
                  "scales must be finite with 0 < min_scale <= max_scale, got "
                      << min_scale << " and " << max_scale);
  FEDVR_CHECK_MSG(std::isfinite(max_shift) && max_shift >= 0.0,
                  "max_shift must be finite and >= 0, got " << max_shift);
  FEDVR_CHECK_MSG(std::isfinite(max_rotate) && max_rotate >= 0.0,
                  "max_rotate must be finite and >= 0, got " << max_rotate);
  FEDVR_CHECK_MSG(std::isfinite(max_shear) && max_shear >= 0.0,
                  "max_shear must be finite and >= 0, got " << max_shear);
}

void render_procedural_image(const ProceduralImageConfig& config, int label,
                             util::Rng& rng, std::span<double> pixels) {
  config.validate();
  const std::size_t side = config.side;
  FEDVR_CHECK_MSG(pixels.size() == side * side,
                  "pixel buffer size " << pixels.size() << " != " << side
                                       << "^2");
  const Drawing& drawing = class_drawing(config.family, label);

  // Random affine transform: output pixel -> canvas point. We apply the
  // *inverse* transform while sampling, which for composition of
  // (translate, rotate, scale, shear) about the canvas center is easiest to
  // build directly.
  const double shift_x = rng.uniform(-config.max_shift, config.max_shift);
  const double shift_y = rng.uniform(-config.max_shift, config.max_shift);
  const double angle = rng.uniform(-config.max_rotate, config.max_rotate);
  const double scale = rng.uniform(config.min_scale, config.max_scale);
  const double shear = rng.uniform(-config.max_shear, config.max_shear);
  const double brightness = rng.uniform(0.85, 1.0);

  const double cos_a = std::cos(-angle);
  const double sin_a = std::sin(-angle);
  const double inv_scale = 1.0 / scale;

  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      // Pixel center in canvas coordinates.
      const double ox =
          (static_cast<double>(col) + 0.5) / static_cast<double>(side);
      const double oy =
          (static_cast<double>(row) + 0.5) / static_cast<double>(side);
      // Undo translation, then rotate/scale/shear about the center.
      double x = ox - 0.5 - shift_x;
      double y = oy - 0.5 - shift_y;
      const double rx = (cos_a * x - sin_a * y) * inv_scale;
      const double ry = (sin_a * x + cos_a * y) * inv_scale;
      const double sx = rx - shear * ry;
      const double sy = ry;
      const double ink =
          ink_at(drawing, sx + 0.5, sy + 0.5, config.stroke_width);
      double v = brightness * ink + rng.normal(0.0, config.noise_stddev);
      pixels[row * side + col] = std::clamp(v, 0.0, 1.0);
    }
  }
}

Dataset make_procedural_pool(const ProceduralImageConfig& config,
                             std::size_t n, std::uint64_t seed) {
  config.validate();
  Dataset out(tensor::Shape({1, config.side, config.side}), n, 10);
  util::Rng label_rng = util::fork(seed, 0, 0, util::stream::kData);
  for (std::size_t i = 0; i < n; ++i) {
    out.set_label(i, static_cast<int>(label_rng.below(10)));
  }
  render_pool(config, seed, out);
  return out;
}

Dataset make_procedural_pool_balanced(const ProceduralImageConfig& config,
                                      std::size_t per_class,
                                      std::uint64_t seed) {
  config.validate();
  const std::size_t n = per_class * 10;
  Dataset out(tensor::Shape({1, config.side, config.side}), n, 10);
  for (std::size_t i = 0; i < n; ++i) {
    out.set_label(i, static_cast<int>(i % 10));
  }
  render_pool(config, seed, out);
  return out;
}

}  // namespace fedvr::data
