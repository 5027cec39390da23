#include "nn/pooling.h"

#include <limits>

namespace lcrs::nn {

namespace {
std::int64_t pooled_extent(std::int64_t in, std::int64_t k, std::int64_t s) {
  LCRS_CHECK(in >= k, "pool window " << k << " larger than input " << in);
  return (in - k) / s + 1;
}

// One output plane of max pooling. kTrack records the flat input index
// of each window's maximum (training needs it for backward); eval skips
// that bookkeeping entirely.
template <bool kTrack>
void maxpool_plane(const float* plane, std::int64_t plane_base,
                   std::int64_t w, std::int64_t oh, std::int64_t ow,
                   std::int64_t kernel, std::int64_t stride, float* out,
                   std::int64_t* argmax) {
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t x = 0; x < ow; ++x) {
      float best = -std::numeric_limits<float>::infinity();
      [[maybe_unused]] std::int64_t best_idx = 0;
      for (std::int64_t ky = 0; ky < kernel; ++ky) {
        const float* row = plane + (y * stride + ky) * w + x * stride;
        for (std::int64_t kx = 0; kx < kernel; ++kx) {
          if (row[kx] > best) {
            best = row[kx];
            if constexpr (kTrack) {
              best_idx = plane_base + (y * stride + ky) * w + x * stride + kx;
            }
          }
        }
      }
      out[y * ow + x] = best;
      if constexpr (kTrack) argmax[y * ow + x] = best_idx;
    }
  }
}
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
  LCRS_CHECK(kernel > 0 && stride > 0, "pool kernel/stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "maxpool expects NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  Tensor out{Shape{n, c, oh, ow}};
  if (train) {
    input_shape_ = input.shape();
    argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  }
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* plane = input.data() + p * h * w;
    float* dst = out.data() + p * oh * ow;
    if (train) {
      maxpool_plane<true>(plane, p * h * w, w, oh, ow, kernel_, stride_, dst,
                          argmax_.data() + p * oh * ow);
    } else {
      maxpool_plane<false>(plane, 0, w, oh, ow, kernel_, stride_, dst,
                           nullptr);
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(!argmax_.empty(), "maxpool backward without cached forward");
  LCRS_CHECK(grad_output.numel() ==
                 static_cast<std::int64_t>(argmax_.size()),
             "maxpool grad_output numel mismatch");
  Tensor grad_input{input_shape_};
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  const std::int64_t count = grad_output.numel();
  for (std::int64_t i = 0; i < count; ++i) {
    gi[argmax_[static_cast<std::size_t>(i)]] += go[i];
  }
  return grad_input;
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
  LCRS_CHECK(kernel > 0 && stride > 0, "pool kernel/stride must be positive");
}

Tensor AvgPool2d::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "avgpool expects NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  Tensor out{Shape{n, c, oh, ow}};
  float* dst = out.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (b * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              acc += plane[(y * stride_ + ky) * w + (x * stride_ + kx)];
            }
          }
          *dst++ = acc * inv;
        }
      }
    }
  }
  if (train) input_shape_ = input.shape();
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(input_shape_.rank() == 4,
             "avgpool backward without cached forward");
  const std::int64_t n = input_shape_[0], c = input_shape_[1],
                     h = input_shape_[2], w = input_shape_[3];
  const std::int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  Tensor grad_input{input_shape_};
  std::int64_t oi = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = grad_input.data() + (b * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x, ++oi) {
          const float g = grad_output[oi] * inv;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              plane[(y * stride_ + ky) * w + (x * stride_ + kx)] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "gap expects NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t plane = input.dim(2) * input.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor out{Shape{n, c}};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = input.data() + (b * c + ch) * plane;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
      out.at2(b, ch) = acc * inv;
    }
  }
  if (train) input_shape_ = input.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  LCRS_CHECK(input_shape_.rank() == 4, "gap backward without cached forward");
  const std::int64_t n = input_shape_[0], c = input_shape_[1];
  const std::int64_t plane = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor grad_input{input_shape_};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at2(b, ch) * inv;
      float* p = grad_input.data() + (b * c + ch) * plane;
      for (std::int64_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() >= 2, "flatten expects rank >= 2");
  if (train) input_shape_ = input.shape();
  return input.reshaped(Shape{input.dim(0), input.numel() / input.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  LCRS_CHECK(input_shape_.rank() >= 2,
             "flatten backward without cached forward");
  return grad_output.reshaped(input_shape_);
}

}  // namespace lcrs::nn
