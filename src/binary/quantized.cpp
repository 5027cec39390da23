#include "binary/quantized.h"

#include <cmath>

#include "nn/conv2d.h"
#include "nn/linear.h"

namespace lcrs::binary {

QuantizedFilters quantize_filters(const Tensor& w) {
  LCRS_CHECK(w.rank() >= 2, "quantize_filters expects rank >= 2");
  const std::int64_t rows = w.dim(0);
  const std::int64_t cols = w.numel() / rows;
  LCRS_CHECK(cols > 0, "empty filters");

  QuantizedFilters qf;
  qf.rows = rows;
  qf.cols = cols;
  qf.q.resize(static_cast<std::size_t>(w.numel()));
  qf.scale = Tensor{Shape{rows}};
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = w.data() + r * cols;
    float max_abs = 0.0f;
    for (std::int64_t i = 0; i < cols; ++i) {
      max_abs = std::max(max_abs, std::fabs(src[i]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    qf.scale[r] = scale;
    for (std::int64_t i = 0; i < cols; ++i) {
      const float v = std::round(src[i] / scale);
      qf.q[static_cast<std::size_t>(r * cols + i)] =
          static_cast<std::int8_t>(std::max(-127.0f, std::min(127.0f, v)));
    }
  }
  return qf;
}

Tensor dequantize(const QuantizedFilters& qf) {
  Tensor w{Shape{qf.rows, qf.cols}};
  for (std::int64_t r = 0; r < qf.rows; ++r) {
    const float s = qf.scale[r];
    for (std::int64_t i = 0; i < qf.cols; ++i) {
      w.at2(r, i) = s * qf.q[static_cast<std::size_t>(r * qf.cols + i)];
    }
  }
  return w;
}

float quantization_error(const Tensor& w, const QuantizedFilters& qf) {
  LCRS_CHECK(w.numel() == qf.rows * qf.cols, "quantization_error mismatch");
  const Tensor deq = dequantize(qf);
  float max_err = 0.0f;
  const std::int64_t n = w.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::fabs(w[i] - deq[i]));
  }
  return max_err;
}

Tensor int8_conv2d(const Tensor& input, const ConvGeom& geom,
                   const QuantizedFilters& weights, const Tensor* bias) {
  LCRS_CHECK(input.rank() == 4 && input.dim(1) == geom.in_c &&
                 input.dim(2) == geom.in_h && input.dim(3) == geom.in_w,
             "int8_conv2d input mismatch");
  LCRS_CHECK(weights.cols == geom.patch_size(),
             "int8_conv2d weight patch mismatch");
  const std::int64_t n = input.dim(0);
  const std::int64_t out_c = weights.rows;
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom.patch_size();
  const std::int64_t in_image = geom.in_c * geom.in_h * geom.in_w;

  Tensor out{Shape{n, out_c, oh, ow}};
  std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
  for (std::int64_t b = 0; b < n; ++b) {
    im2col(input.data() + b * in_image, geom, cols.data());
    float* obase = out.data() + b * out_c * pixels;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int8_t* wrow =
          weights.q.data() + static_cast<std::size_t>(oc * patch);
      const float s = weights.scale[oc];
      const float bv = bias != nullptr ? (*bias)[oc] : 0.0f;
      float* orow = obase + oc * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) {
        float acc = 0.0f;
        for (std::int64_t k = 0; k < patch; ++k) {
          acc += cols[static_cast<std::size_t>(k * pixels + p)] * wrow[k];
        }
        orow[p] = acc * s + bv;
      }
    }
  }
  return out;
}

Tensor int8_linear(const Tensor& input, const QuantizedFilters& weights,
                   const Tensor* bias) {
  LCRS_CHECK(input.rank() == 2 && input.dim(1) == weights.cols,
             "int8_linear input mismatch");
  const std::int64_t n = input.dim(0);
  const std::int64_t out = weights.rows;
  Tensor y{Shape{n, out}};
  for (std::int64_t b = 0; b < n; ++b) {
    const float* x = input.data() + b * weights.cols;
    float* row = y.data() + b * out;
    for (std::int64_t o = 0; o < out; ++o) {
      const std::int8_t* wrow =
          weights.q.data() + static_cast<std::size_t>(o * weights.cols);
      float acc = 0.0f;
      for (std::int64_t k = 0; k < weights.cols; ++k) acc += x[k] * wrow[k];
      row[o] = acc * weights.scale[o];
      if (bias != nullptr) row[o] += (*bias)[o];
    }
  }
  return y;
}

namespace {
std::int64_t int8_bytes_of(nn::Layer& layer) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    std::int64_t b = conv->weight().numel() + 4 * conv->out_channels();
    if (conv->has_bias()) b += 4 * conv->out_channels();
    return b;
  }
  if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
    std::int64_t b = lin->weight().numel() + 4 * lin->out_features();
    if (lin->has_bias()) b += 4 * lin->out_features();
    return b;
  }
  const auto children = layer.children();
  if (children.empty()) return layer.param_bytes();
  std::int64_t total = 0;
  for (nn::Layer* child : children) total += int8_bytes_of(*child);
  return total;
}
}  // namespace

std::int64_t int8_payload_bytes(nn::Sequential& model) {
  return int8_bytes_of(model);
}

}  // namespace lcrs::binary
