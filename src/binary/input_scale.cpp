#include "binary/input_scale.h"

#include <cmath>
#include <vector>

#include "common/error.h"

namespace lcrs::binary {

Tensor input_scale_K(const Tensor& input, const ConvGeom& geom) {
  LCRS_CHECK(input.rank() == 4, "input_scale_K expects NCHW");
  LCRS_CHECK(input.dim(1) == geom.in_c && input.dim(2) == geom.in_h &&
                 input.dim(3) == geom.in_w,
             "input_scale_K geometry mismatch");
  const std::int64_t n = input.dim(0), c = geom.in_c, h = geom.in_h,
                     w = geom.in_w;
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const float inv_c = 1.0f / static_cast<float>(c);
  const float inv_kk = 1.0f / static_cast<float>(geom.kernel * geom.kernel);

  Tensor k_out{Shape{n, oh, ow}};
  std::vector<float> a_plane(static_cast<std::size_t>(h * w));
  for (std::int64_t b = 0; b < n; ++b) {
    // A = mean over channels of |I|.
    for (auto& v : a_plane) v = 0.0f;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (b * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) {
        a_plane[static_cast<std::size_t>(i)] += std::fabs(plane[i]);
      }
    }
    for (auto& v : a_plane) v *= inv_c;

    // K = A convolved with the kernel-sized box filter (zero padding, same
    // stride as the layer).
    float* kb = k_out.data() + b * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        float acc = 0.0f;
        for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
          const std::int64_t iy = y * geom.stride + ky - geom.pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < geom.kernel; ++kx) {
            const std::int64_t ix = x * geom.stride + kx - geom.pad;
            if (ix < 0 || ix >= w) continue;
            acc += a_plane[static_cast<std::size_t>(iy * w + ix)];
          }
        }
        kb[y * ow + x] = acc * inv_kk;
      }
    }
  }
  return k_out;
}

Tensor input_scale_rows(const Tensor& input) {
  LCRS_CHECK(input.rank() == 2, "input_scale_rows expects rank-2");
  const std::int64_t n = input.dim(0), f = input.dim(1);
  LCRS_CHECK(f > 0, "input_scale_rows on empty features");
  Tensor beta{Shape{n}};
  for (std::int64_t b = 0; b < n; ++b) {
    const float* row = input.data() + b * f;
    double acc = 0.0;
    for (std::int64_t i = 0; i < f; ++i) {
      acc += static_cast<double>(std::fabs(row[i]));
    }
    beta[b] = static_cast<float>(acc / static_cast<double>(f));
  }
  return beta;
}

void apply_alpha_k(float* out, std::int64_t n, std::int64_t channels,
                   std::int64_t pixels, const float* alpha, const float* k) {
  for (std::int64_t b = 0; b < n; ++b) {
    const float* kb = k + b * pixels;
    for (std::int64_t c = 0; c < channels; ++c) {
      const float a = alpha[c];
      float* row = out + (b * channels + c) * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) row[p] *= a * kb[p];
    }
  }
}

}  // namespace lcrs::binary
