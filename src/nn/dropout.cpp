#include "nn/dropout.h"

namespace lcrs::nn {

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(rng.fork()) {
  LCRS_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1), got " << p);
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || p_ == 0.0f) return input;
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  mask_.assign(static_cast<std::size_t>(input.numel()), 0.0f);
  Tensor out(input.shape());
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (!rng_.bernoulli(p_)) {
      mask_[static_cast<std::size_t>(i)] = scale;
      out[i] = input[i] * scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (p_ == 0.0f) return grad_output;
  LCRS_CHECK(static_cast<std::int64_t>(mask_.size()) == grad_output.numel(),
             "dropout backward without matching forward");
  Tensor grad(grad_output.shape());
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    grad[i] = grad_output[i] * mask_[static_cast<std::size_t>(i)];
  }
  return grad;
}

}  // namespace lcrs::nn
