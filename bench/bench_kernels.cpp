// Kernel microbenchmarks (google-benchmark): the XNOR/popcount path vs
// full-precision GEMM and convolution -- the mechanism behind the paper's
// Sec. III-B/IV claims of faster, memory-saving binary inference.
//
// The elementwise cells (ReLU, MaxPool2d, the webinfer tanh activation)
// time the full-precision glue around the binary kernels at the map
// shapes the serving path runs them on: LeNet's conv1 output (12x28x28,
// computed in the browser) and AlexNet's conv2 output (48x16x16, on the
// edge main branch).
//
// Every benchmark verifies the timed kernel's output against a
// forced-scalar reference computed up front, inside the iteration loop
// (timing paused): a wrong-but-fast kernel fails the run with
// SkipWithError instead of posting a headline number. Bit-domain kernels
// must match exactly; float kernels get the k-scaled cross-level
// tolerance documented in DESIGN.md "SIMD kernel layer".
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "binary/binary_conv2d.h"
#include "binary/bitmatrix.h"
#include "binary/xnor_gemm.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "webinfer/engine.h"

namespace lcrs {
namespace {

// Returns false (after flagging the run) when `got` strays from `want`
// by more than `tol`; tol = 0 demands bit-equality.
bool verify(benchmark::State& state, const float* got, const float* want,
            std::int64_t count, float tol, const char* what) {
  for (std::int64_t i = 0; i < count; ++i) {
    const float diff = std::fabs(got[i] - want[i]);
    if (!(diff <= tol)) {  // catches NaN too
      std::ostringstream msg;
      msg << what << " diverged from scalar reference at index " << i
          << ": got " << got[i] << " want " << want[i] << " (tol " << tol
          << ")";
      state.SkipWithError(msg.str().c_str());
      return false;
    }
  }
  return true;
}

void BM_FloatGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    gemm(a.data(), b.data(), ref.data(), n, n, n);
  }
  const float tol = 1e-3f * static_cast<float>(n);
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    if (!verify(state, c.data(), ref.data(), n * n, tol, "gemm")) return;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FloatGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_FloatGemmPackedA(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  const PackedA packed = pack_a_panels(a.data(), n, n);
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    gemm(a.data(), b.data(), ref.data(), n, n, n);
  }
  const float tol = 1e-3f * static_cast<float>(n);
  for (auto _ : state) {
    gemm_packed_a(packed, b.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    if (!verify(state, c.data(), ref.data(), n * n, tol, "gemm_packed_a")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FloatGemmPackedA)->Arg(64)->Arg(128)->Arg(256);

void BM_XnorGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const binary::BitMatrix a =
      binary::BitMatrix::pack(Tensor::randn(Shape{n, n}, rng));
  const binary::BitMatrix b =
      binary::BitMatrix::pack(Tensor::randn(Shape{n, n}, rng));
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    binary::xnor_gemm(a, b, ref.data());
  }
  for (auto _ : state) {
    binary::xnor_gemm(a, b, c.data());
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    // Integer-domain kernel: bit-identical, no tolerance.
    if (!verify(state, c.data(), ref.data(), n * n, 0.0f, "xnor_gemm")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_XnorGemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_BitPack(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  const Tensor t = Tensor::randn(Shape{n, n}, rng);
  binary::BitMatrix ref(n, n);
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    binary::pack_signs(t.data(), n, n, &ref);
  }
  binary::BitMatrix m(n, n);
  for (auto _ : state) {
    binary::pack_signs(t.data(), n, n, &m);
    benchmark::DoNotOptimize(m.row(0));
    state.PauseTiming();
    if (!(m == ref)) {
      state.SkipWithError("pack_signs diverged from scalar reference");
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitPack)->Arg(256);

void BM_FloatConv2d(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol, "conv2d")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_FloatConv2d)->Arg(32)->Arg(64)->Arg(128);

// The serving-path shape: prepared (panel-packed) conv over a coalesced
// batch, the configuration the edge batcher runs after PR-6.
void BM_FloatConv2dPreparedBatch(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(6, 16, 5, 1, 0, 12, 12, rng);  // LeNet conv2 geometry
  conv.prepare_inference();
  const Tensor x = Tensor::randn(Shape{batch, 6, 12, 12}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol,
                "prepared conv2d")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * batch *
                          conv.flops_per_sample());
}
BENCHMARK(BM_FloatConv2dPreparedBatch)->Arg(1)->Arg(4)->Arg(16);

void BM_BinaryConv2dReference(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(4);
  binary::BinaryConv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol,
                "binary conv reference")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_BinaryConv2dReference)->Arg(64);

void BM_BinaryConv2dXnor(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(4);
  binary::BinaryConv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  conv.prepare_inference();
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  // The strongest gate available: forward_fast must reproduce the
  // float-sign reference path bit for bit (the PR-2 exactness property).
  const Tensor ref = conv.forward(x, false);
  for (auto _ : state) {
    Tensor y = conv.forward_fast(x);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), 0.0f,
                "xnor conv fast path")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_BinaryConv2dXnor)->Arg(32)->Arg(64)->Arg(128);

// Times `op` (returning a fresh Tensor) over a seeded map of
// [1, c, hw, hw] and checks each result against the forced-scalar one.
template <typename Op>
void run_elementwise(benchmark::State& state, Op op, float tol,
                     const char* what) {
  const std::int64_t c = state.range(0), hw = state.range(1);
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, c, hw, hw}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = op(x);
  }
  for (auto _ : state) {
    Tensor y = op(x);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol, what)) return;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}

void BM_ReLU(benchmark::State& state) {
  nn::ReLU relu;
  run_elementwise(
      state, [&](const Tensor& x) { return relu.forward(x, false); }, 0.0f,
      "relu");
}
BENCHMARK(BM_ReLU)->ArgNames({"c", "hw"})->Args({12, 28})->Args({48, 16});

void BM_MaxPool2d(benchmark::State& state) {
  nn::MaxPool2d pool(2, 2);
  run_elementwise(
      state, [&](const Tensor& x) { return pool.forward(x, false); }, 0.0f,
      "maxpool2d");
}
BENCHMARK(BM_MaxPool2d)
    ->ArgNames({"c", "hw"})
    ->Args({12, 28})
    ->Args({48, 16});

// The browser engine's tanh op, run through a one-op model; vector levels
// may differ from the scalar std::tanh by the documented 1e-6.
void BM_WebinferTanh(benchmark::State& state) {
  webinfer::WebModel m;
  m.in_c = state.range(0);
  m.in_h = m.in_w = state.range(1);
  m.num_classes = 1;
  m.shared_op_count = 1;
  m.ops.push_back(webinfer::ActivationOp{webinfer::ActivationOp::Kind::kTanh});
  const webinfer::Engine engine{std::move(m)};
  run_elementwise(
      state, [&](const Tensor& x) { return engine.forward_shared(x); }, 1e-6f,
      "webinfer tanh");
}
BENCHMARK(BM_WebinferTanh)
    ->ArgNames({"c", "hw"})
    ->Args({12, 28})
    ->Args({48, 16});

}  // namespace
}  // namespace lcrs

BENCHMARK_MAIN();
