#include "nn/activations.h"

#include <cmath>

#include "common/simd_math.h"

namespace lcrs::nn {

// Every loop below runs over hoisted data() spans: one shape check per
// call, none per element, so the compiler can vectorize the select. The
// formulas are the reference ones (ReLU maps NaN and -0 to +0; HardTanh
// passes NaN through), evaluated per element in the same order.

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  if (train) cached_input_ = input;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.same_shape(grad_output),
             "relu backward shape mismatch");
  Tensor grad(grad_output.shape());
  const float* x = cached_input_.data();
  const float* go = grad_output.data();
  float* g = grad.data();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = x[i] > 0.0f ? go[i] : 0.0f;
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool train) {
  // Dispatched kernel: exact std::tanh at the scalar level, the vectorized
  // approximation (see common/simd_math.h) on vector levels. Elementwise
  // purity keeps batch-composition invariance intact at any level.
  Tensor out = input;
  simd::tanh_inplace(out.data(), out.numel());
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_output_.same_shape(grad_output),
             "tanh backward shape mismatch");
  Tensor grad(grad_output.shape());
  const float* y = cached_output_.data();
  const float* go = grad_output.data();
  float* g = grad.data();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = go[i] * (1.0f - y[i] * y[i]);
  return grad;
}

Tensor HardTanh::forward(const Tensor& input, bool train) {
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] > 1.0f ? 1.0f : (x[i] < -1.0f ? -1.0f : x[i]);
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor HardTanh::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.same_shape(grad_output),
             "hardtanh backward shape mismatch");
  Tensor grad(grad_output.shape());
  const float* x = cached_input_.data();
  const float* go = grad_output.data();
  float* g = grad.data();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    g[i] = (x[i] >= -1.0f && x[i] <= 1.0f) ? go[i] : 0.0f;
  }
  return grad;
}

}  // namespace lcrs::nn
