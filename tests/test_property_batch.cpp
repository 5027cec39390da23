// Property / differential sweeps behind the batched serving path.
//
// The edge batcher's correctness claim is "batch=k is bit-for-bit
// batch=1, k times". This suite earns that claim from the bottom up
// with seeded randomized sweeps:
//
//   * xnor kernels: bit-packed forward_fast vs the reference float-sign
//     forward across random geometries -- exactly equal, not almost.
//   * row independence: forward(batch)[i] == forward(row_i) for binary
//     layers, the full main branch, and complete_main_batch.
//   * stack_outer/slice_outer are exact inverses, so the server's
//     stack -> forward -> slice round trip cannot perturb a value.
//   * elementwise ops (activations, max pooling, bias adds, tensor ops)
//     run over raw spans; each must equal its reference per-element
//     formula bit for bit, on NaN, +-0, +-inf and denormals, at every
//     ragged length and every compiled dispatch level.
//
// Seeds are fixed; any failure replays exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "binary/binary_conv2d.h"
#include "binary/binary_linear.h"
#include "binary/xnor_gemm.h"
#include "common/simd.h"
#include "common/simd_math.h"
#include "core/inference.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/tensor_ops.h"

namespace lcrs {
namespace {

TEST(PropertyXnor, Conv2dFastPathMatchesReferenceAcrossRandomShapes) {
  Rng rng(11001);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t in_c = rng.randint(1, 4);
    const std::int64_t out_c = rng.randint(1, 6);
    const std::int64_t kernel = rng.randint(1, 4);
    const std::int64_t stride = rng.randint(1, 2);
    const std::int64_t pad = rng.randint(0, 2);
    // Keep the padded input at least one kernel wide so the geometry is
    // valid for every sampled (kernel, stride, pad).
    const std::int64_t h = kernel + rng.randint(1, 8);
    const std::int64_t w = kernel + rng.randint(1, 8);
    const std::int64_t n = rng.randint(1, 3);

    binary::BinaryConv2d conv(in_c, out_c, kernel, stride, pad, h, w, rng);
    const Tensor x = Tensor::randn(Shape{n, in_c, h, w}, rng);
    const Tensor reference = conv.forward(x, /*train=*/false);
    conv.prepare_inference();
    const Tensor fast = conv.forward_fast(x);
    ASSERT_TRUE(reference.same_shape(fast)) << "trial " << trial;
    EXPECT_EQ(max_abs_diff(reference, fast), 0.0f)
        << "trial " << trial << ": xnor conv diverged from reference at "
        << "geometry in_c=" << in_c << " out_c=" << out_c << " k=" << kernel
        << " s=" << stride << " p=" << pad << " h=" << h << " w=" << w
        << " n=" << n;
  }
}

TEST(PropertyXnor, LinearFastPathMatchesReferenceAcrossRandomShapes) {
  Rng rng(11002);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t in = rng.randint(1, 96);
    const std::int64_t out = rng.randint(1, 32);
    const std::int64_t n = rng.randint(1, 5);
    const bool bias = rng.bernoulli(0.5);
    binary::BinaryLinear fc(in, out, rng, bias);
    const Tensor x = Tensor::randn(Shape{n, in}, rng);
    const Tensor reference = fc.forward(x, /*train=*/false);
    fc.prepare_inference();
    const Tensor fast = fc.forward_fast(x);
    ASSERT_TRUE(reference.same_shape(fast)) << "trial " << trial;
    EXPECT_EQ(max_abs_diff(reference, fast), 0.0f)
        << "trial " << trial << ": in=" << in << " out=" << out
        << " n=" << n << " bias=" << bias;
  }
}

TEST(PropertyBatch, BinaryLayersAreRowIndependent) {
  // forward(batch)[i] must be bit-identical to forward(row_i): the
  // per-sample scaling factors (K map, beta) may not leak across rows.
  Rng rng(11003);
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t k = rng.randint(2, 5);
    binary::BinaryConv2d conv(2, 4, 3, 1, 1, 10, 10, rng);
    const Tensor batch = Tensor::randn(Shape{k, 2, 10, 10}, rng);
    const Tensor full = conv.forward(batch, false);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row = conv.forward(batch.slice_outer(i, i + 1), false);
      EXPECT_EQ(max_abs_diff(full.slice_outer(i, i + 1), row), 0.0f)
          << "conv trial " << trial << " row " << i;
    }

    binary::BinaryLinear fc(24, 7, rng);
    const Tensor fbatch = Tensor::randn(Shape{k, 24}, rng);
    const Tensor ffull = fc.forward(fbatch, false);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row = fc.forward(fbatch.slice_outer(i, i + 1), false);
      EXPECT_EQ(max_abs_diff(ffull.slice_outer(i, i + 1), row), 0.0f)
          << "fc trial " << trial << " row " << i;
    }
  }
}

TEST(PropertyBatch, StackOuterIsInverseOfSliceOuter) {
  Rng rng(11004);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t n = rng.randint(1, 6);
    const std::int64_t c = rng.randint(1, 4);
    const std::int64_t h = rng.randint(1, 7);
    const Tensor whole = Tensor::randn(Shape{n, c, h, h}, rng);
    std::vector<Tensor> rows;
    for (std::int64_t i = 0; i < n; ++i) {
      rows.push_back(whole.slice_outer(i, i + 1));
    }
    const Tensor back = stack_outer(rows);
    ASSERT_TRUE(back.same_shape(whole)) << "trial " << trial;
    EXPECT_EQ(max_abs_diff(back, whole), 0.0f) << "trial " << trial;
  }
  // Mixed outer sizes concatenate; mismatched inner dims are rejected.
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::ones(Shape{1, 3});
  EXPECT_EQ(stack_outer({a, b}).dim(0), 3);
  EXPECT_THROW(stack_outer({}), Error);
  EXPECT_THROW(stack_outer({a, Tensor::ones(Shape{1, 4})}), Error);
  EXPECT_THROW(stack_outer({a, Tensor::ones(Shape{1, 3, 1})}), Error);
}

core::CompositeNetwork make_net(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return core::CompositeNetwork::build(cfg, rng);
}

TEST(PropertyBatch, MainBranchBatchForwardIsRowIndependent) {
  // The exact property the edge batcher stands on: one [k,...] forward
  // of the main rest equals k separate [1,...] forwards, bitwise.
  Rng rng(11005);
  core::CompositeNetwork net = make_net(rng);
  for (const std::int64_t k : {2, 3, 5}) {
    const Tensor inputs = Tensor::randn(Shape{k, 1, 28, 28}, rng);
    const Tensor shared_batch = net.shared_stage().forward(inputs, false);
    const Tensor full = net.forward_main_from_shared(shared_batch);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row =
          net.forward_main_from_shared(shared_batch.slice_outer(i, i + 1));
      EXPECT_EQ(max_abs_diff(full.slice_outer(i, i + 1), row), 0.0f)
          << "k=" << k << " row " << i;
    }
  }
}

TEST(PropertyBatch, CompleteMainBatchMatchesPerSamplePath) {
  Rng rng(11006);
  core::CompositeNetwork net = make_net(rng);
  for (const std::int64_t k : {1, 2, 4}) {
    const Tensor inputs = Tensor::randn(Shape{k, 1, 28, 28}, rng);
    // Stack per-sample conv1 outputs exactly the way the server does.
    std::vector<Tensor> parts;
    for (std::int64_t i = 0; i < k; ++i) {
      parts.push_back(
          net.shared_stage().forward(inputs.slice_outer(i, i + 1), false));
    }
    const core::MainBatchCompletion batched =
        core::complete_main_batch(net, stack_outer(parts));
    ASSERT_EQ(batched.labels.size(), static_cast<std::size_t>(k));
    ASSERT_EQ(batched.probabilities.dim(0), k);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor solo = softmax_rows(net.forward_main_from_shared(
          parts[static_cast<std::size_t>(i)]));
      EXPECT_EQ(batched.labels[static_cast<std::size_t>(i)], argmax(solo))
          << "k=" << k << " row " << i;
      EXPECT_EQ(
          max_abs_diff(batched.probabilities.slice_outer(i, i + 1), solo),
          0.0f)
          << "k=" << k << " row " << i;
    }
  }
  EXPECT_THROW(core::complete_main_batch(net, Tensor::ones(Shape{1, 2})),
               Error);
}

// --- Prepared (panel-packed) Conv2d serving path ---

TEST(PropertyBatch, PreparedConvBatchRowsMatchSingleSampleExactly) {
  // The prepared path computes each output as one ascending-k chain per
  // (weight row, patch), independent of how many samples share the call
  // -- so batch row i must be BIT-identical to serving sample i alone.
  Rng rng(11007);
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t in_c = rng.randint(1, 4);
    const std::int64_t out_c = rng.randint(1, 7);
    const std::int64_t kernel = rng.randint(1, 4);
    const std::int64_t stride = rng.randint(1, 2);
    const std::int64_t pad = rng.randint(0, 2);
    const std::int64_t h = kernel + rng.randint(1, 8);
    const std::int64_t w = kernel + rng.randint(1, 8);
    const std::int64_t n = rng.randint(2, 6);
    nn::Conv2d conv(in_c, out_c, kernel, stride, pad, h, w, rng);
    conv.prepare_inference();
    ASSERT_TRUE(conv.inference_prepared());
    const Tensor x = Tensor::randn(Shape{n, in_c, h, w}, rng);
    const Tensor batched = conv.forward(x, /*train=*/false);
    for (std::int64_t i = 0; i < n; ++i) {
      const Tensor solo = conv.forward(x.slice_outer(i, i + 1), false);
      EXPECT_EQ(max_abs_diff(batched.slice_outer(i, i + 1), solo), 0.0f)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(PropertyBatch, PreparedConvMatchesUnpreparedWithinTolerance) {
  // Prepared and unprepared forwards run different kernels (panel GEMM
  // vs blocked GEMM); both are single ascending-k chains, so they agree
  // to the documented k-scaled cross-kernel tolerance.
  Rng rng(11008);
  nn::Conv2d conv(3, 8, 5, 1, 2, 12, 12, rng);
  const Tensor x = Tensor::randn(Shape{4, 3, 12, 12}, rng);
  const Tensor unprepared = conv.forward(x, /*train=*/false);
  conv.prepare_inference();
  const Tensor prepared = conv.forward(x, /*train=*/false);
  ASSERT_TRUE(unprepared.same_shape(prepared));
  const float tol =
      1e-3f * static_cast<float>(conv.geometry().patch_size());
  EXPECT_LT(max_abs_diff(unprepared, prepared), tol);
}

TEST(PropertyBatch, PreparedConvForcedScalarMatchesNativeWithinTolerance) {
  Rng rng(11009);
  nn::Conv2d conv(2, 6, 3, 1, 1, 10, 10, rng);
  conv.prepare_inference();
  const Tensor x = Tensor::randn(Shape{3, 2, 10, 10}, rng);
  const Tensor native = conv.forward(x, /*train=*/false);
  Tensor scalar;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    scalar = conv.forward(x, /*train=*/false);
  }
  const float tol =
      1e-3f * static_cast<float>(conv.geometry().patch_size());
  EXPECT_LT(max_abs_diff(native, scalar), tol);
}

TEST(PropertyBatch, BackwardInvalidatesPreparedConvPanels) {
  // An optimizer step after backward moves the weights; a stale panel
  // pack would silently serve the old network. backward() must drop it.
  Rng rng(11010);
  nn::Conv2d conv(1, 4, 3, 1, 1, 8, 8, rng);
  conv.prepare_inference();
  ASSERT_TRUE(conv.inference_prepared());
  const Tensor x = Tensor::randn(Shape{2, 1, 8, 8}, rng);
  const Tensor y = conv.forward(x, /*train=*/true);
  (void)conv.backward(Tensor::ones(y.shape()));
  EXPECT_FALSE(conv.inference_prepared());
}

TEST(PropertyBatch, PreparedMainBranchBatchForwardIsRowIndependent) {
  // Same row-independence claim as the unprepared test above, but with
  // the serving preparation the edge server actually applies (packed
  // Linear transposes + packed Conv2d panels + batched im2col).
  Rng rng(11011);
  core::CompositeNetwork net = make_net(rng);
  net.prepare_edge_inference();
  for (const std::int64_t k : {2, 5}) {
    const Tensor inputs = Tensor::randn(Shape{k, 1, 28, 28}, rng);
    const Tensor shared_batch = net.shared_stage().forward(inputs, false);
    const Tensor full = net.forward_main_from_shared(shared_batch);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row =
          net.forward_main_from_shared(shared_batch.slice_outer(i, i + 1));
      EXPECT_EQ(max_abs_diff(full.slice_outer(i, i + 1), row), 0.0f)
          << "k=" << k << " row " << i;
    }
  }
}

// --- Dispatched tanh kernel (common/simd_math.h) ---

std::vector<simd::Level> testable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l :
       {simd::Level::kSse, simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::level_available(l)) levels.push_back(l);
  }
  return levels;
}

TEST(PropertyTanh, KernelMatchesStdTanhWithinDocumentedBound) {
  // The vector levels use a rational approximation; DESIGN.md documents
  // a 1e-6 absolute bound against std::tanh. Scalar must be exact.
  std::vector<float> xs;
  for (float v = -10.0f; v <= 10.0f; v += 0.0137f) xs.push_back(v);
  for (const float s : {0.0f, -0.0f, 1e-5f, -1e-5f, 3.9e-4f, 4.1e-4f,
                        7.905f, -7.905f, 7.906f, -7.906f, 50.0f, -50.0f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    xs.push_back(s);
  }
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    std::vector<float> got = xs;
    simd::tanh_inplace(got.data(), static_cast<std::int64_t>(got.size()));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float want = std::tanh(xs[i]);
      if (level == simd::Level::kScalar) {
        EXPECT_EQ(got[i], want)
            << "scalar level must be exact std::tanh at x=" << xs[i];
      } else {
        EXPECT_NEAR(got[i], want, 1e-6f)
            << simd::level_name(level) << " at x=" << xs[i];
      }
    }
    // NaN propagates; signed zero is preserved bit-for-bit.
    float nan = std::numeric_limits<float>::quiet_NaN();
    simd::tanh_inplace(&nan, 1);
    EXPECT_TRUE(std::isnan(nan)) << simd::level_name(level);
    float negzero = -0.0f;
    simd::tanh_inplace(&negzero, 1);
    EXPECT_TRUE(std::signbit(negzero)) << simd::level_name(level);
  }
}

TEST(PropertyTanh, KernelIsElementwisePureAcrossRaggedLengths) {
  // The batcher changes tensor lengths, never values: an element must map
  // to the same bits whether it sits in a full vector lane, the padded
  // ragged tail, or a length-1 call. Row independence of the prepared
  // main branch stands on this purity.
  Rng rng(11012);
  const Tensor x = Tensor::randn(Shape{37}, rng);
  Tensor full = x;
  simd::tanh_inplace(full.data(), full.numel());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    float one = x[i];
    simd::tanh_inplace(&one, 1);
    EXPECT_EQ(full[i], one) << "index " << i;
  }
  for (const std::int64_t len : {1, 7, 8, 9, 31, 32, 33}) {
    std::vector<float> prefix(x.data(), x.data() + len);
    simd::tanh_inplace(prefix.data(), len);
    for (std::int64_t j = 0; j < len; ++j) {
      EXPECT_EQ(full[j], prefix[static_cast<std::size_t>(j)])
          << "len " << len << " index " << j;
    }
  }
}

// --- Elementwise ops over raw spans ---

// The lengths the rewritten loops must get right: every vector-tail
// remainder for 4- and 8-wide code, and the LeNet/AlexNet map size.
std::vector<std::int64_t> ragged_lengths() {
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(12288);
  return lengths;
}

// Gaussian values with the awkward ones spliced in at a stride that is
// coprime with every vector width: NaN, +-0, +-inf, denormals, the
// HardTanh knees and their neighbours.
Tensor awkward_values(Shape shape, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            inf,
                            -inf,
                            denorm,
                            -denorm,
                            1e-40f,
                            -1e-40f,
                            1.0f,
                            -1.0f,
                            std::nextafter(1.0f, 2.0f),
                            std::nextafter(-1.0f, -2.0f)};
  constexpr std::int64_t kCount = sizeof(specials) / sizeof(specials[0]);
  Tensor t = Tensor::randn(std::move(shape), rng, 0.0f, 2.0f);
  for (std::int64_t i = 0; i < t.numel(); i += 3) {
    t.data()[i] = specials[(i / 3) % kCount];
  }
  return t;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

// Expects out[i] to carry exactly the bits of want(i) for every i.
template <typename Want>
void expect_bits(const Tensor& out, Want want, const std::string& what) {
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const float w = want(i);
    ASSERT_TRUE(same_bits(out.data()[i], w))
        << what << " index " << i << ": got " << out.data()[i] << " want "
        << w;
  }
}

float ref_relu(float x) { return x > 0.0f ? x : 0.0f; }
float ref_hardtanh(float x) {
  return x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
}

TEST(PropertyElementwise, ActivationsMatchReferenceFormulasBitExact) {
  Rng rng(11013);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const std::int64_t n : ragged_lengths()) {
      const std::string tag = std::string(simd::level_name(level)) +
                              " n=" + std::to_string(n);
      const Tensor x = awkward_values(Shape{n}, rng);
      const Tensor g = awkward_values(Shape{n}, rng);
      const float* xp = x.data();
      const float* gp = g.data();

      nn::ReLU relu;
      expect_bits(relu.forward(x, true),
                  [&](std::int64_t i) { return ref_relu(xp[i]); },
                  "relu " + tag);
      expect_bits(relu.backward(g),
                  [&](std::int64_t i) { return xp[i] > 0.0f ? gp[i] : 0.0f; },
                  "relu backward " + tag);

      nn::HardTanh hardtanh;
      expect_bits(hardtanh.forward(x, true),
                  [&](std::int64_t i) { return ref_hardtanh(xp[i]); },
                  "hardtanh " + tag);
      expect_bits(hardtanh.backward(g),
                  [&](std::int64_t i) {
                    return (xp[i] >= -1.0f && xp[i] <= 1.0f) ? gp[i] : 0.0f;
                  },
                  "hardtanh backward " + tag);

      nn::Tanh tanh_layer;
      const Tensor y = tanh_layer.forward(x, true);
      const float* yp = y.data();
      expect_bits(tanh_layer.backward(g),
                  [&](std::int64_t i) {
                    return gp[i] * (1.0f - yp[i] * yp[i]);
                  },
                  "tanh backward " + tag);
    }
  }
  // The reference ReLU sends NaN and -0 to +0; the span loop keeps that.
  nn::ReLU relu;
  Tensor edge{Shape{2}};
  edge.data()[0] = std::numeric_limits<float>::quiet_NaN();
  edge.data()[1] = -0.0f;
  const Tensor out = relu.forward(edge, false);
  EXPECT_TRUE(same_bits(out.data()[0], 0.0f));
  EXPECT_TRUE(same_bits(out.data()[1], 0.0f));
}

TEST(PropertyElementwise, TensorOpsMatchReferenceFormulasBitExact) {
  Rng rng(11014);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const std::int64_t n : ragged_lengths()) {
      const std::string tag = std::string(simd::level_name(level)) +
                              " n=" + std::to_string(n);
      const Tensor a = awkward_values(Shape{n}, rng);
      const Tensor b = awkward_values(Shape{n}, rng);
      const float* ap = a.data();
      const float* bp = b.data();
      const float s = 0.37f;
      expect_bits(add(a, b), [&](std::int64_t i) { return ap[i] + bp[i]; },
                  "add " + tag);
      expect_bits(sub(a, b), [&](std::int64_t i) { return ap[i] - bp[i]; },
                  "sub " + tag);
      expect_bits(mul(a, b), [&](std::int64_t i) { return ap[i] * bp[i]; },
                  "mul " + tag);
      expect_bits(scale(a, s), [&](std::int64_t i) { return ap[i] * s; },
                  "scale " + tag);
      expect_bits(sign(a),
                  [&](std::int64_t i) { return ap[i] >= 0.0f ? 1.0f : -1.0f; },
                  "sign " + tag);
      Tensor c = a;
      add_inplace(c, b);
      expect_bits(c, [&](std::int64_t i) { return ap[i] + bp[i]; },
                  "add_inplace " + tag);
      c = a;
      axpy_inplace(c, s, b);
      expect_bits(c, [&](std::int64_t i) { return ap[i] + s * bp[i]; },
                  "axpy_inplace " + tag);
      c = a;
      scale_inplace(c, s);
      expect_bits(c, [&](std::int64_t i) { return ap[i] * s; },
                  "scale_inplace " + tag);
    }
  }
}

// Reference max pooling: the window scan order and strict `>` of the
// checked-index original, so NaN never wins and ties keep the first.
Tensor ref_maxpool(const Tensor& x, std::int64_t k, std::int64_t s,
                   std::vector<std::int64_t>* argmax) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
  Tensor out{Shape{n, c, oh, ow}};
  std::int64_t oi = 0;
  for (std::int64_t p = 0; p < n * c; ++p) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xx = 0; xx < ow; ++xx, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t idx = p * h * w + (y * s + ky) * w + xx * s + kx;
            if (x.data()[idx] > best) {
              best = x.data()[idx];
              best_idx = idx;
            }
          }
        }
        out.data()[oi] = best;
        argmax->push_back(best_idx);
      }
    }
  }
  return out;
}

TEST(PropertyElementwise, MaxPoolMatchesReferenceAndBatchEqualsSingle) {
  Rng rng(11015);
  struct Geom {
    std::int64_t k, s, h, w;
  };
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const Geom gm : {Geom{2, 2, 28, 28}, Geom{2, 2, 16, 16},
                          Geom{3, 2, 15, 13}, Geom{3, 1, 7, 9},
                          Geom{2, 2, 5, 3}, Geom{1, 1, 2, 17}}) {
      const std::string tag = std::string(simd::level_name(level)) +
                              " k=" + std::to_string(gm.k) +
                              " s=" + std::to_string(gm.s) +
                              " h=" + std::to_string(gm.h) +
                              " w=" + std::to_string(gm.w);
      const std::int64_t batch = 3, channels = 2;
      const Tensor x = awkward_values(Shape{batch, channels, gm.h, gm.w}, rng);
      std::vector<std::int64_t> want_idx;
      const Tensor want = ref_maxpool(x, gm.k, gm.s, &want_idx);

      nn::MaxPool2d pool(gm.k, gm.s);
      const Tensor eval = pool.forward(x, false);
      const Tensor train = pool.forward(x, true);
      expect_bits(eval, [&](std::int64_t i) { return want.data()[i]; },
                  "maxpool eval " + tag);
      expect_bits(train, [&](std::int64_t i) { return want.data()[i]; },
                  "maxpool train " + tag);

      // Backward routes each gradient to the reference argmax.
      const Tensor g = Tensor::randn(want.shape(), rng);
      const Tensor gx = pool.backward(g);
      Tensor want_gx{x.shape()};
      for (std::size_t i = 0; i < want_idx.size(); ++i) {
        want_gx.data()[want_idx[i]] += g.data()[i];
      }
      expect_bits(gx, [&](std::int64_t i) { return want_gx.data()[i]; },
                  "maxpool backward " + tag);

      for (std::int64_t r = 0; r < batch; ++r) {
        const Tensor row = pool.forward(x.slice_outer(r, r + 1), false);
        EXPECT_EQ(std::memcmp(row.data(), eval.slice_outer(r, r + 1).data(),
                              sizeof(float) * static_cast<std::size_t>(
                                                  row.numel())),
                  0)
            << "maxpool batch != single " << tag << " row " << r;
      }
    }
  }
}

TEST(PropertyElementwise, BiasAddsMatchReferenceBitExact) {
  Rng rng(11016);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const std::int64_t out : {1, 5, 8, 13, 17}) {
      const std::string tag = std::string(simd::level_name(level)) +
                              " out=" + std::to_string(out);
      const std::int64_t in = 11, n = 3;
      const Tensor x = Tensor::randn(Shape{n, in}, rng);
      const Tensor b = awkward_values(Shape{out}, rng);
      const float* bp = b.data();

      // nn::Linear: bias-free forward of the same weights, plus b.
      Rng wa(out), wb(out);
      nn::Linear with(in, out, wa, /*bias=*/true);
      nn::Linear without(in, out, wb, /*bias=*/false);
      with.params()[1]->value = b;
      for (const bool prepared : {false, true}) {
        if (prepared) {
          with.prepare_inference();
          without.prepare_inference();
        }
        const Tensor base = without.forward(x, false);
        expect_bits(with.forward(x, false),
                    [&](std::int64_t i) {
                      return base.data()[i] + bp[i % out];
                    },
                    "linear bias " + tag);
      }

      // binary::xnor_linear and BinaryLinear: the scaled product rounds
      // first, then the bias is added -- the bias-free output plus b.
      const binary::BitMatrix bits =
          binary::BitMatrix::pack(Tensor::randn(Shape{out, in}, rng));
      const Tensor alpha = Tensor::rand(Shape{out}, rng, 0.1f, 1.0f);
      const Tensor scaled = binary::xnor_linear(x, bits, alpha, nullptr);
      expect_bits(binary::xnor_linear(x, bits, alpha, &b),
                  [&](std::int64_t i) {
                    return scaled.data()[i] + bp[i % out];
                  },
                  "xnor_linear bias " + tag);

      Rng fa(out + 100), fb(out + 100);
      binary::BinaryLinear fc_with(in, out, fa, /*bias=*/true);
      binary::BinaryLinear fc_without(in, out, fb, /*bias=*/false);
      fc_with.params()[1]->value = b;
      const Tensor fc_base = fc_without.forward(x, false);
      expect_bits(fc_with.forward(x, false),
                  [&](std::int64_t i) {
                    return fc_base.data()[i] + bp[i % out];
                  },
                  "binary linear bias " + tag);
    }
  }
}

}  // namespace
}  // namespace lcrs
