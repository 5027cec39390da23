#include "binary/quantized.h"

#include "nn/conv2d.h"
#include "nn/linear.h"

namespace lcrs::binary {

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
