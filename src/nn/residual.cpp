#include "nn/residual.h"

#include "tensor/tensor_ops.h"

namespace lcrs::nn {

namespace {
// The block's ReLU, in place: negatives become +0; NaN and -0 pass
// through unchanged.
void relu_inplace(Tensor& t) {
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (p[i] < 0.0f) p[i] = 0.0f;
  }
}
}  // namespace

ResidualBlock::ResidualBlock(std::int64_t in_c, std::int64_t out_c,
                             std::int64_t stride, std::int64_t in_h,
                             std::int64_t in_w, Rng& rng)
    : out_c_(out_c) {
  conv1_ = std::make_unique<Conv2d>(in_c, out_c, 3, stride, 1, in_h, in_w,
                                    rng, /*bias=*/false);
  const std::int64_t mid_h = conv1_->geometry().out_h();
  const std::int64_t mid_w = conv1_->geometry().out_w();
  bn1_ = std::make_unique<BatchNorm>(out_c);
  conv2_ = std::make_unique<Conv2d>(out_c, out_c, 3, 1, 1, mid_h, mid_w, rng,
                                    /*bias=*/false);
  bn2_ = std::make_unique<BatchNorm>(out_c);
  if (stride != 1 || in_c != out_c) {
    shortcut_conv_ = std::make_unique<Conv2d>(in_c, out_c, 1, stride, 0, in_h,
                                              in_w, rng, /*bias=*/false);
    shortcut_bn_ = std::make_unique<BatchNorm>(out_c);
  }
}

Tensor ResidualBlock::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "residual block expects NCHW input, got rank "
                                    << input.rank());
  Tensor main = conv1_->forward(input, train);
  main = bn1_->forward(main, train);
  if (train) cached_relu1_in_ = main;
  relu_inplace(main);
  main = conv2_->forward(main, train);
  main = bn2_->forward(main, train);

  Tensor sc = input;
  if (shortcut_conv_) {
    sc = shortcut_conv_->forward(input, train);
    sc = shortcut_bn_->forward(sc, train);
  }
  add_inplace(main, sc);
  if (train) cached_sum_ = main;
  relu_inplace(main);
  return main;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_sum_.numel() > 0,
             "resblock backward without cached forward");
  // Through the final ReLU.
  Tensor g(grad_output.shape());
  const std::int64_t count = g.numel();
  for (std::int64_t i = 0; i < count; ++i) {
    g[i] = cached_sum_[i] > 0.0f ? grad_output[i] : 0.0f;
  }

  // Shortcut path gradient.
  Tensor g_short = g;
  if (shortcut_conv_) {
    g_short = shortcut_bn_->backward(g_short);
    g_short = shortcut_conv_->backward(g_short);
  }

  // Main path gradient.
  Tensor g_main = bn2_->backward(g);
  g_main = conv2_->backward(g_main);
  const std::int64_t main_count = g_main.numel();
  for (std::int64_t i = 0; i < main_count; ++i) {
    if (cached_relu1_in_[i] <= 0.0f) g_main[i] = 0.0f;
  }
  g_main = bn1_->backward(g_main);
  g_main = conv1_->backward(g_main);

  add_inplace(g_main, g_short);
  return g_main;
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> ps;
  for (Layer* l :
       std::initializer_list<Layer*>{conv1_.get(), bn1_.get(), conv2_.get(),
                                     bn2_.get(), shortcut_conv_.get(),
                                     shortcut_bn_.get()}) {
    if (l == nullptr) continue;
    for (Param* p : l->params()) ps.push_back(p);
  }
  return ps;
}

std::vector<nn::Layer::NamedState> ResidualBlock::state_tensors() {
  std::vector<NamedState> all;
  for (Layer* l : std::initializer_list<Layer*>{bn1_.get(), bn2_.get(),
                                                shortcut_bn_.get()}) {
    if (l == nullptr) continue;
    for (const NamedState& s : l->state_tensors()) all.push_back(s);
  }
  return all;
}

std::vector<nn::Layer*> ResidualBlock::children() {
  std::vector<Layer*> out;
  for (Layer* l :
       std::initializer_list<Layer*>{conv1_.get(), bn1_.get(), conv2_.get(),
                                     bn2_.get(), shortcut_conv_.get(),
                                     shortcut_bn_.get()}) {
    if (l != nullptr) out.push_back(l);
  }
  return out;
}

std::int64_t ResidualBlock::flops_per_sample() const {
  std::int64_t f = conv1_->flops_per_sample() + conv2_->flops_per_sample();
  if (shortcut_conv_) f += shortcut_conv_->flops_per_sample();
  return f;
}

}  // namespace lcrs::nn
