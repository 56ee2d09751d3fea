#include "tensor/im2col.h"

#include <algorithm>
#include <cstddef>

#include "check/check.h"
#include "obs/registry.h"

namespace fedvr::tensor {

namespace {
// Geometry preconditions via the gated fedvr::check layer (im2col runs once
// per sample per conv layer; the checks vanish under -DFEDVR_CHECKS=OFF,
// leaving the parameters otherwise unused).
void check_geometry([[maybe_unused]] const ConvGeometry& g,
                    [[maybe_unused]] std::size_t image_size,
                    [[maybe_unused]] std::size_t cols_size,
                    [[maybe_unused]] std::size_t ld_cols,
                    [[maybe_unused]] std::size_t col_offset) {
  FEDVR_CHECK_PRE(g.height + 2 * g.pad >= g.kernel_h &&
                      g.width + 2 * g.pad >= g.kernel_w,
                  "kernel " << g.kernel_h << "x" << g.kernel_w
                            << " larger than padded image");
  FEDVR_CHECK_PRE(g.stride >= 1, "stride must be at least 1");
  FEDVR_CHECK_PRE(ld_cols >= col_offset + g.out_pixels(),
                  "cols row stride " << ld_cols << " too small for offset "
                                     << col_offset << " + " << g.out_pixels()
                                     << " pixels");
  FEDVR_CHECK_SHAPE(image_size, g.image_size());
  FEDVR_CHECK_PRE(
      cols_size >= (g.col_rows() - 1) * ld_cols + col_offset + g.out_pixels(),
      "cols storage " << cols_size << " too small");
}

// For stride == 1, output row (c, kh, kw) of the column matrix is the input
// row shifted by (kh - pad, kw - pad): a zero prefix/suffix around one
// contiguous copy (im2col) or one unit-stride add run (col2im). The valid
// output ranges below are exactly the pixels whose input coordinate lands
// inside the unpadded image.
struct ValidRange {
  std::ptrdiff_t lo;
  std::ptrdiff_t hi;  // may be < lo when the whole row is padding
};

inline ValidRange valid_range(std::size_t out_extent, std::size_t in_extent,
                              std::size_t k, std::size_t pad) {
  const auto kk = static_cast<std::ptrdiff_t>(k);
  const auto pp = static_cast<std::ptrdiff_t>(pad);
  return {std::max<std::ptrdiff_t>(0, pp - kk),
          std::min(static_cast<std::ptrdiff_t>(out_extent),
                   static_cast<std::ptrdiff_t>(in_extent) + pp - kk)};
}

void im2col_core(const ConvGeometry& g, const double* image, double* cols,
                 std::size_t ld_cols, std::size_t col_offset) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const double* plane = image + c * g.height * g.width;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        double* out_row = cols + row * ld_cols + col_offset;
        if (g.stride == 1) {
          const ValidRange vy = valid_range(out_h, g.height, kh, g.pad);
          const ValidRange vx = valid_range(out_w, g.width, kw, g.pad);
          const std::ptrdiff_t run = std::max<std::ptrdiff_t>(0, vx.hi - vx.lo);
          std::ptrdiff_t oy = 0;
          for (; oy < vy.lo; ++oy) std::fill_n(out_row + oy * out_w, out_w, 0.0);
          for (; oy < vy.hi; ++oy) {
            double* dst = out_row + oy * out_w;
            std::fill_n(dst, vx.lo, 0.0);
            const std::size_t iy = static_cast<std::size_t>(oy + kh - g.pad);
            const double* src = plane + iy * g.width +
                                static_cast<std::size_t>(vx.lo + kw - g.pad);
            std::copy_n(src, run, dst + vx.lo);
            std::fill_n(dst + vx.lo + run, out_w - static_cast<std::size_t>(vx.lo + run), 0.0);
          }
          for (; oy < static_cast<std::ptrdiff_t>(out_h); ++oy) {
            std::fill_n(out_row + oy * out_w, out_w, 0.0);
          }
          continue;
        }
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          // Input coordinates may be in the padding; signed arithmetic keeps
          // the borrow explicit.
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            double v = 0.0;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.height) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.width)) {
              v = plane[static_cast<std::size_t>(iy) * g.width +
                        static_cast<std::size_t>(ix)];
            }
            out_row[oy * out_w + ox] = v;
          }
        }
      }
    }
  }
}

void col2im_core(const ConvGeometry& g, const double* cols, double* image,
                 std::size_t ld_cols, std::size_t col_offset) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    double* plane = image + c * g.height * g.width;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const double* in_row = cols + row * ld_cols + col_offset;
        if (g.stride == 1) {
          // For fixed (kh, kw) each output pixel maps to a distinct image
          // element, so the unit-stride add run leaves every element's
          // accumulation order (ascending column row) unchanged.
          const ValidRange vy = valid_range(out_h, g.height, kh, g.pad);
          const ValidRange vx = valid_range(out_w, g.width, kw, g.pad);
          const std::ptrdiff_t run = std::max<std::ptrdiff_t>(0, vx.hi - vx.lo);
          for (std::ptrdiff_t oy = vy.lo; oy < vy.hi; ++oy) {
            const std::size_t iy = static_cast<std::size_t>(oy + kh - g.pad);
            double* dst = plane + iy * g.width +
                          static_cast<std::size_t>(vx.lo + kw - g.pad);
            const double* src = in_row + oy * out_w + vx.lo;
            for (std::ptrdiff_t i = 0; i < run; ++i) dst[i] += src[i];
          }
          continue;
        }
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.height)) continue;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.width)) continue;
            plane[static_cast<std::size_t>(iy) * g.width +
                  static_cast<std::size_t>(ix)] += in_row[oy * out_w + ox];
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const ConvGeometry& g, std::span<const double> image,
            std::span<double> cols) {
  im2col(g, image, cols, g.out_pixels(), 0);
}

void im2col(const ConvGeometry& g, std::span<const double> image,
            std::span<double> cols, std::size_t ld_cols,
            std::size_t col_offset) {
  check_geometry(g, image.size(), cols.size(), ld_cols, col_offset);
  FEDVR_OBS_COUNT("tensor.im2col.calls", 1);
  FEDVR_OBS_COUNT("tensor.im2col.elems", g.col_rows() * g.out_pixels());
  im2col_core(g, image.data(), cols.data(), ld_cols, col_offset);
}

void col2im(const ConvGeometry& g, std::span<const double> cols,
            std::span<double> image) {
  col2im(g, cols, image, g.out_pixels(), 0);
}

void col2im(const ConvGeometry& g, std::span<const double> cols,
            std::span<double> image, std::size_t ld_cols,
            std::size_t col_offset) {
  check_geometry(g, image.size(), cols.size(), ld_cols, col_offset);
  FEDVR_OBS_COUNT("tensor.col2im.calls", 1);
  FEDVR_OBS_COUNT("tensor.col2im.elems", g.col_rows() * g.out_pixels());
  col2im_core(g, cols.data(), image.data(), ld_cols, col_offset);
}

}  // namespace fedvr::tensor
