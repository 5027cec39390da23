#include "tensor/forward_kernels.h"

#include <limits>
#include <vector>

#include "common/parallel.h"
#include "tensor/gemm.h"

namespace lcrs {

void conv2d_forward(const float* x, std::int64_t n, const ConvGeom& g,
                    const float* weight, std::int64_t out_c,
                    const float* bias, float* out, float pad_value) {
  const std::int64_t pixels = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t in_image = g.in_c * g.in_h * g.in_w;
  parallel_for(n, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
    for (std::int64_t b = b0; b < b1; ++b) {
      im2col(x + b * in_image, g, cols.data(), pad_value);
      float* ob = out + b * out_c * pixels;
      gemm(weight, cols.data(), ob, out_c, patch, pixels);
      if (bias != nullptr) add_channel_bias(ob, out_c, pixels, bias);
    }
  });
}

void add_channel_bias(float* out, std::int64_t channels, std::int64_t pixels,
                      const float* bias) {
  for (std::int64_t c = 0; c < channels; ++c) {
    const float bv = bias[c];
    float* row = out + c * pixels;
    for (std::int64_t p = 0; p < pixels; ++p) row[p] += bv;
  }
}

void add_row_bias(float* out, std::int64_t rows, std::int64_t cols,
                  const float* bias) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = out + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void relu_forward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void hardtanh_forward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 1.0f ? 1.0f : (x[i] < -1.0f ? -1.0f : x[i]);
  }
}

namespace {

// kTrack records the flat input index of each window's maximum; eval
// skips that bookkeeping entirely.
template <bool kTrack>
void maxpool_planes(const float* x, std::int64_t planes, std::int64_t h,
                    std::int64_t w, std::int64_t kernel, std::int64_t stride,
                    float* out, std::int64_t* argmax) {
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  for (std::int64_t p = 0; p < planes; ++p) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xx = 0; xx < ow; ++xx) {
        const std::int64_t origin = p * h * w + y * stride * w + xx * stride;
        float best = -std::numeric_limits<float>::infinity();
        [[maybe_unused]] std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const std::int64_t i = origin + ky * w + kx;
            if (x[i] > best) {
              best = x[i];
              if constexpr (kTrack) best_idx = i;
            }
          }
        }
        *out++ = best;
        if constexpr (kTrack) *argmax++ = best_idx;
      }
    }
  }
}

}  // namespace

void maxpool_forward(const float* x, std::int64_t planes, std::int64_t h,
                     std::int64_t w, std::int64_t kernel, std::int64_t stride,
                     float* out, std::int64_t* argmax) {
  if (argmax != nullptr) {
    maxpool_planes<true>(x, planes, h, w, kernel, stride, out, argmax);
  } else {
    maxpool_planes<false>(x, planes, h, w, kernel, stride, out, nullptr);
  }
}

void global_avg_pool_forward(const float* x, std::int64_t planes,
                             std::int64_t plane, float* out) {
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* src = x + p * plane;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < plane; ++i) acc += src[i];
    out[p] = acc * inv;
  }
}

}  // namespace lcrs
