#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace lcrs {

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::kaiming(Shape shape, Rng& rng, std::int64_t fan_in) {
  LCRS_CHECK(fan_in > 0, "kaiming init needs positive fan_in");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return randn(std::move(shape), rng, 0.0f, stddev);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  LCRS_CHECK(new_shape.numel() == numel(),
             "reshape " << shape_.to_string() << " -> "
                        << new_shape.to_string() << " changes numel");
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::slice_outer(std::int64_t begin, std::int64_t end) const {
  LCRS_CHECK(rank() >= 1, "slice_outer on scalar");
  LCRS_CHECK(begin >= 0 && begin <= end && end <= shape_[0],
             "slice_outer range [" << begin << ", " << end << ") of "
                                   << shape_.to_string());
  std::vector<std::int64_t> dims = shape_.dims();
  dims[0] = end - begin;
  const std::int64_t inner = numel() / std::max<std::int64_t>(shape_[0], 1);
  Tensor out{Shape(dims)};
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * inner),
            data_.begin() + static_cast<std::ptrdiff_t>(end * inner),
            out.data());
  return out;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace lcrs
