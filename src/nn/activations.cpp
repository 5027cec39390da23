#include "nn/activations.h"

#include <cmath>

#include "common/simd_math.h"
#include "tensor/forward_kernels.h"

namespace lcrs::nn {

// The ReLU and HardTanh forwards are the shared kernels in
// tensor/forward_kernels.h, which the browser engine runs too. The
// backward loops run over hoisted data() spans: one shape check per call,
// none per element, so the compiler can vectorize them.

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor out(input.shape());
  relu_forward(input.data(), out.data(), input.numel());
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
  hardtanh_forward(input.data(), out.data(), input.numel());
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
