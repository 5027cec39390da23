// Browser inference library tests: format round-trip and, critically,
// output parity between the standalone engine and the training framework
// (the paper validates its JS/WASM library against PyTorch identically).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/simd_math.h"
#include "core/composite.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/tensor_ops.h"
#include "webinfer/engine.h"
#include "webinfer/export.h"

namespace lcrs::webinfer {
namespace {

core::CompositeNetwork make_net(models::Arch arch, std::int64_t channels,
                                std::int64_t hw, std::int64_t classes,
                                Rng& rng) {
  const models::ModelConfig cfg{arch, channels, hw, hw, classes, 0.25};
  return core::CompositeNetwork::build(cfg, rng);
}

TEST(Format, EmptyModelRejected) {
  EXPECT_THROW(Engine(WebModel{}), Error);
}

TEST(Format, SerializeDeserializeRoundTrip) {
  Rng rng(1);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const WebModel m = export_browser_model(net, 1, 28, 28);
  const auto bytes = serialize(m);
  const WebModel back = deserialize(bytes);
  EXPECT_EQ(back.in_c, 1);
  EXPECT_EQ(back.in_h, 28);
  EXPECT_EQ(back.num_classes, 10);
  EXPECT_EQ(back.shared_op_count, m.shared_op_count);
  EXPECT_EQ(back.ops.size(), m.ops.size());

  // Loaded model computes identically to the in-memory one.
  const Engine a{m}, b{back};
  const Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  EXPECT_EQ(max_abs_diff(a.forward(x), b.forward(x)), 0.0f);
}

TEST(Format, CorruptBytesThrow) {
  Rng rng(2);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  auto bytes = serialize(export_browser_model(net, 1, 28, 28));
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize(bytes), ParseError);

  auto truncated = serialize(export_browser_model(net, 1, 28, 28));
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize(truncated), ParseError);
}

struct ParityCase {
  models::Arch arch;
  std::int64_t channels, hw, classes;
};

class EngineParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(EngineParity, MatchesFrameworkInference) {
  const ParityCase p = GetParam();
  Rng rng(p.channels * 100 + p.hw);
  core::CompositeNetwork net =
      make_net(p.arch, p.channels, p.hw, p.classes, rng);

  // Exercise batchnorm running stats so folding is non-trivial.
  for (int i = 0; i < 3; ++i) {
    net.forward(Tensor::randn(Shape{8, p.channels, p.hw, p.hw}, rng), true);
  }

  const Engine engine{export_browser_model(net, p.channels, p.hw, p.hw)};
  const Tensor x = Tensor::randn(Shape{4, p.channels, p.hw, p.hw}, rng);

  const core::CompositeOutput ref = net.forward_binary_only(x);
  const Tensor engine_logits = engine.forward(x);
  // Binary layers run through the exact XNOR path; conv/linear/batchnorm
  // introduce only fold-ordering float noise.
  EXPECT_LT(max_abs_diff(ref.binary_logits, engine_logits), 1e-3f);

  // Predicted classes must agree exactly.
  const auto ref_pred = argmax_rows(ref.binary_logits);
  const auto eng_pred = argmax_rows(engine_logits);
  EXPECT_EQ(ref_pred, eng_pred);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, EngineParity,
    ::testing::Values(ParityCase{models::Arch::kLeNet, 1, 28, 10},
                      ParityCase{models::Arch::kAlexNet, 3, 32, 10},
                      ParityCase{models::Arch::kResNet18, 3, 32, 10},
                      ParityCase{models::Arch::kVgg16, 3, 32, 100}));

TEST(Engine, SharedPlusBranchEqualsFullForward) {
  Rng rng(3);
  core::CompositeNetwork net =
      make_net(models::Arch::kAlexNet, 3, 32, 10, rng);
  const Engine engine{export_browser_model(net, 3, 32, 32)};
  const Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);

  const Tensor shared = engine.forward_shared(x);
  const Tensor via_split = engine.forward_branch(shared);
  EXPECT_EQ(max_abs_diff(via_split, engine.forward(x)), 0.0f);

  // The shared tensor matches the framework's conv1 output.
  const core::CompositeOutput ref = net.forward_binary_only(x);
  EXPECT_LT(max_abs_diff(shared, ref.shared), 1e-4f);
}

TEST(Engine, ParityHoldsAfterTraining) {
  // The full paper flow: joint-train, export, verify parity.
  Rng rng(4);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const data::TrainTest tt =
      data::make_synthetic_pair(data::mnist_like(), 128, 64, rng);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.verbose = false;
  core::JointTrainer trainer(net, cfg);
  trainer.train(tt.train, tt.test, rng);

  const Engine engine{export_browser_model(net, 1, 28, 28)};
  const Tensor x = tt.test.images.slice_outer(0, 8);
  const core::CompositeOutput ref = net.forward_binary_only(x);
  EXPECT_LT(max_abs_diff(ref.binary_logits, engine.forward(x)), 1e-3f);
}

TEST(Engine, ModelBytesAreMuchSmallerThanFloat) {
  Rng rng(5);
  core::CompositeNetwork net =
      make_net(models::Arch::kAlexNet, 3, 32, 10, rng);
  const Engine engine{export_browser_model(net, 3, 32, 32)};
  std::int64_t float_branch_bytes = 0;
  for (nn::Param* p : net.binary_params()) {
    float_branch_bytes += p->numel() * 4;
  }
  // Engine blob = float conv1 + packed branch; it must be far below the
  // float branch alone (the binary weights dominate the branch).
  EXPECT_LT(engine.model_bytes(), float_branch_bytes);
}

TEST(Engine, RejectsWrongGeometry) {
  Rng rng(6);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const Engine engine{export_browser_model(net, 1, 28, 28)};
  EXPECT_THROW(engine.forward(Tensor{Shape{1, 3, 28, 28}}), Error);
  EXPECT_THROW(engine.forward(Tensor{Shape{1, 1, 32, 32}}), Error);
}

TEST(Engine, PredictProbabilitiesSumToOne) {
  Rng rng(7);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const Engine engine{export_browser_model(net, 1, 28, 28)};
  const Tensor p =
      engine.predict_probabilities(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  double sum = 0.0;
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    sum += static_cast<double>(p[i]);
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

// --- Elementwise ops over raw spans ---
//
// A one-op engine isolates each op: forward_shared() returns the op's
// output without the logits-shape check. Every op is in the shared stage.

Engine shared_stage_engine(std::vector<Op> ops, const Shape& input) {
  WebModel m;
  m.in_c = input[1];
  m.in_h = input[2];
  m.in_w = input[3];
  m.num_classes = 1;
  m.shared_op_count = static_cast<std::int64_t>(ops.size());
  m.ops = std::move(ops);
  return Engine{std::move(m)};
}

std::vector<simd::Level> testable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l :
       {simd::Level::kSse, simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::level_available(l)) levels.push_back(l);
  }
  return levels;
}

// Gaussian values with NaN, +-0, +-inf, denormals and the HardTanh knees
// spliced in at a stride coprime with every vector width.
Tensor awkward_values(Shape shape, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,   -0.0f,   inf,  -inf, denorm, -denorm,
                            1e-40f, -1e-40f, 1.0f, -1.0f};
  constexpr std::int64_t kCount = sizeof(specials) / sizeof(specials[0]);
  Tensor t = Tensor::randn(std::move(shape), rng, 0.0f, 2.0f);
  for (std::int64_t i = 0; i < t.numel(); i += 3) {
    t.data()[i] = specials[(i / 3) % kCount];
  }
  return t;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

// forward_shared on a batch must equal forward_shared on each row.
void expect_batch_equals_single(const Engine& engine, const Tensor& batch,
                                const std::string& what) {
  const Tensor full = engine.forward_shared(batch);
  const std::int64_t rows = batch.dim(0);
  for (std::int64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(same_bytes(engine.forward_shared(batch.slice_outer(r, r + 1)),
                           full.slice_outer(r, r + 1)))
        << what << " row " << r;
  }
}

TEST(EngineOps, ActivationsMatchReferenceAtEveryLevel) {
  Rng rng(8);
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(12288);
  using Kind = ActivationOp::Kind;
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const std::int64_t n : lengths) {
      const std::string tag = std::string(simd::level_name(level)) +
                              " n=" + std::to_string(n);
      const Tensor x = awkward_values(Shape{3, n, 1, 1}, rng);
      // The tanh kernel itself, applied to a copy of the input.
      Tensor kernel = x;
      simd::tanh_inplace(kernel.data(), kernel.numel());
      for (const Kind kind : {Kind::kReLU, Kind::kTanh, Kind::kHardTanh}) {
        const Engine engine =
            shared_stage_engine({ActivationOp{kind}}, x.shape());
        const Tensor y = engine.forward_shared(x);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          const float v = x.data()[i];
          float want = 0.0f;
          switch (kind) {
            case Kind::kReLU:
              want = v > 0.0f ? v : 0.0f;
              break;
            case Kind::kHardTanh:
              want = v > 1.0f ? 1.0f : (v < -1.0f ? -1.0f : v);
              break;
            case Kind::kTanh:
              want = kernel.data()[i];
              if (std::isnan(v)) {
                ASSERT_TRUE(std::isnan(y.data()[i])) << tag;
                continue;
              }
              // Scalar is exact std::tanh; vector levels stay within the
              // documented 1e-6 of it.
              if (level == simd::Level::kScalar) {
                ASSERT_EQ(want, std::tanh(v)) << tag << " index " << i;
              } else {
                ASSERT_NEAR(want, std::tanh(v), 1e-6f) << tag << " x=" << v;
              }
              break;
          }
          ASSERT_EQ(std::memcmp(&y.data()[i], &want, sizeof(float)), 0)
              << "kind " << static_cast<int>(kind) << " " << tag
              << " index " << i << " x=" << v << ": got " << y.data()[i]
              << " want " << want;
        }
        expect_batch_equals_single(engine, x, tag);
      }
    }
  }
}

// One row of the engine-vs-framework table: the engine ops (a Flatten
// ahead of a linear op) and the nn layer they must match byte for byte in
// eval mode, before any prepare_inference().
struct OpCase {
  std::string name;
  std::vector<Op> ops;
  std::shared_ptr<nn::Layer> layer;
  Shape input;
  bool flatten = false;  // the layer takes [N, C*H*W]
};

std::vector<OpCase> framework_op_cases(Rng& rng) {
  std::vector<OpCase> cases;
  for (const bool bias : {true, false}) {
    auto conv = std::make_shared<nn::Conv2d>(3, 5, 3, 2, 1, 11, 9, rng, bias);
    conv->bias_param().value = Tensor::randn(Shape{5}, rng);
    cases.push_back({"conv2d bias=" + std::to_string(bias),
                     {Conv2dOp{conv->geometry(), 5, bias, conv->weight().value,
                               conv->bias_param().value}},
                     conv, Shape{3, 3, 11, 9}});
    auto lin = std::make_shared<nn::Linear>(12, 7, rng, bias);
    lin->bias_param().value = Tensor::randn(Shape{7}, rng);
    cases.push_back({"linear bias=" + std::to_string(bias),
                     {FlattenOp{}, LinearOp{12, 7, bias, lin->weight().value,
                                            lin->bias_param().value}},
                     lin, Shape{3, 3, 2, 2}, true});
  }
  cases.push_back({"relu", {ActivationOp{ActivationOp::Kind::kReLU}},
                   std::make_shared<nn::ReLU>(), Shape{3, 5, 7, 3}});
  cases.push_back({"hardtanh", {ActivationOp{ActivationOp::Kind::kHardTanh}},
                   std::make_shared<nn::HardTanh>(), Shape{3, 5, 7, 3}});
  struct Pool {
    std::int64_t k, s, h, w;
  };
  for (const Pool g : {Pool{2, 2, 28, 28}, Pool{2, 2, 16, 16},
                       Pool{3, 2, 15, 13}, Pool{3, 1, 7, 9},
                       Pool{2, 2, 5, 3}}) {
    cases.push_back({"maxpool k=" + std::to_string(g.k) +
                         " s=" + std::to_string(g.s),
                     {MaxPoolOp{g.k, g.s}},
                     std::make_shared<nn::MaxPool2d>(g.k, g.s),
                     Shape{3, 4, g.h, g.w}});
  }
  cases.push_back({"gap", {GlobalAvgPoolOp{}},
                   std::make_shared<nn::GlobalAvgPool>(), Shape{3, 4, 5, 7}});
  return cases;
}

TEST(EngineOps, OneOpEnginesMatchFrameworkLayersBitExact) {
  // Engine and framework run the same forward kernels; the inputs carry
  // NaN, +-0, +-inf and denormals, and NaN never wins a max-pool window.
  Rng rng(9);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const OpCase& c : framework_op_cases(rng)) {
      const std::string tag = std::string(simd::level_name(level)) + " " +
                              c.name;
      const Tensor x = awkward_values(c.input, rng);
      const Engine engine = shared_stage_engine(c.ops, x.shape());
      const Tensor want = c.layer->forward(
          c.flatten ? x.reshaped(Shape{x.dim(0), x.numel() / x.dim(0)}) : x,
          false);
      EXPECT_TRUE(same_bytes(engine.forward_shared(x), want)) << tag;
      expect_batch_equals_single(engine, x, tag);
    }
  }
}

TEST(EngineOps, LinearBiasIsBiasFreeOutputPlusBias) {
  Rng rng(10);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    for (const std::int64_t out : {1, 5, 8, 13, 17}) {
      const std::int64_t in = 12;
      LinearOp with;
      with.in = in;
      with.out = out;
      with.weight = Tensor::randn(Shape{out, in}, rng);
      with.bias = awkward_values(Shape{out}, rng);
      LinearOp without = with;
      without.has_bias = false;
      const Tensor x = Tensor::randn(Shape{3, in, 1, 1}, rng);
      const auto run = [&](const LinearOp& op) {
        return shared_stage_engine({FlattenOp{}, op}, x.shape())
            .forward_shared(x);
      };
      const Tensor base = run(without);
      const Tensor y = run(with);
      for (std::int64_t i = 0; i < y.numel(); ++i) {
        const float want = base.data()[i] + with.bias.data()[i % out];
        ASSERT_EQ(std::memcmp(&y.data()[i], &want, sizeof(float)), 0)
            << simd::level_name(level) << " out=" << out << " index " << i;
      }
    }
  }
}

TEST(EngineOps, ScalarLevelSharedStageIsExactStdTanh) {
  // Under LCRS_SIMD=scalar the engine's tanh is the std::tanh loop it has
  // always been, so the uploaded conv1 map is byte-identical to that
  // reference: replay the shared stage op by op with tanh done by hand.
  simd::ScopedForcedLevel force(simd::Level::kScalar);
  Rng rng(11);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const Engine engine{export_browser_model(net, 1, 28, 28)};
  const Tensor input = Tensor::randn(Shape{2, 1, 28, 28}, rng);

  Tensor x = input;
  int tanh_ops = 0;
  for (std::int64_t i = 0; i < engine.model().shared_op_count; ++i) {
    const Op& op = engine.model().ops[static_cast<std::size_t>(i)];
    const auto* act = std::get_if<ActivationOp>(&op);
    if (act != nullptr && act->kind == ActivationOp::Kind::kTanh) {
      for (std::int64_t j = 0; j < x.numel(); ++j) {
        x.data()[j] = std::tanh(x.data()[j]);
      }
      ++tanh_ops;
    } else {
      x = shared_stage_engine({op}, x.shape()).forward_shared(x);
    }
  }
  ASSERT_GT(tanh_ops, 0) << "LeNet's shared stage has no tanh to check";
  EXPECT_TRUE(same_bytes(engine.forward_shared(input), x));
}

}  // namespace
}  // namespace lcrs::webinfer
