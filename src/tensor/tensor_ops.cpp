#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lcrs {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  LCRS_CHECK(a.same_shape(b), op << ": shape mismatch "
                                 << a.shape().to_string() << " vs "
                                 << b.shape().to_string());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += alpha * pb[i];
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] * s;
  return out;
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] *= s;
}

double sum(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += static_cast<double>(pa[i]);
  return acc;
}

double mean(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<double>(a.numel());
}

double mean_abs(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "mean_abs of empty tensor");
  return l1_norm(a) / static_cast<double>(a.numel());
}

float max_value(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "max of empty tensor");
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  float m = pa[0];
  for (std::int64_t i = 1; i < n; ++i) m = std::max(m, pa[i]);
  return m;
}

std::int64_t argmax(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "argmax of empty tensor");
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (pa[i] > pa[best]) best = i;
  }
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  LCRS_CHECK(logits.rank() == 2, "argmax_rows expects rank-2");
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  LCRS_CHECK(cols > 0, "argmax_rows on zero columns");
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  LCRS_CHECK(logits.rank() == 2, "softmax_rows expects rank-2");
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float mx = in[0];
    for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      denom += static_cast<double>(o[c]);
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor sign(const Tensor& a) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] >= 0.0f ? 1.0f : -1.0f;
  return out;
}

double l1_norm(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(std::fabs(pa[i]));
  }
  return acc;
}

double l2_norm(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(pa[i]);
    acc += v * v;
  }
  return std::sqrt(acc);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

Tensor stack_outer(const std::vector<Tensor>& parts) {
  LCRS_CHECK(!parts.empty(), "stack_outer needs at least one tensor");
  const Shape& first = parts.front().shape();
  LCRS_CHECK(first.rank() >= 1, "stack_outer needs rank >= 1");
  std::int64_t total_outer = 0;
  for (const Tensor& p : parts) {
    LCRS_CHECK(p.rank() == first.rank(),
               "stack_outer rank mismatch: " << p.shape().to_string()
                                             << " vs " << first.to_string());
    for (std::int64_t d = 1; d < first.rank(); ++d) {
      LCRS_CHECK(p.dim(d) == first[d],
                 "stack_outer inner-dim mismatch: " << p.shape().to_string()
                                                    << " vs "
                                                    << first.to_string());
    }
    total_outer += p.dim(0);
  }
  std::vector<std::int64_t> out_dims = first.dims();
  out_dims[0] = total_outer;
  Tensor out{Shape{std::move(out_dims)}};
  float* dst = out.data();
  for (const Tensor& p : parts) {
    const std::size_t n = static_cast<std::size_t>(p.numel());
    if (n > 0) std::memcpy(dst, p.data(), n * sizeof(float));
    dst += n;
  }
  return out;
}

}  // namespace lcrs
