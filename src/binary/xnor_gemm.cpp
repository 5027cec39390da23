#include "binary/xnor_gemm.h"

#include <vector>

#include "binary/input_scale.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "tensor/forward_kernels.h"

namespace lcrs::binary {

void xnor_gemm(const BitMatrix& a, const BitMatrix& b, float* c) {
  LCRS_CHECK(a.cols() == b.cols(), "xnor_gemm inner dim mismatch: "
                                       << a.cols() << " vs " << b.cols());
  const std::int64_t m = a.rows(), n = b.rows();
  const std::int64_t words = a.words_per_row();
  const std::int64_t k = a.cols();
  // Dispatch once per call. The AVX2 popcount only pays for itself when
  // a row spans several 256-bit loads; short rows stay on the unrolled
  // scalar loop. Both are exact, so the cutover is purely a speed knob.
  const bool use_avx2 =
      simd::active_level() == simd::Level::kAvx2 && words >= 8;

  parallel_for(m, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const std::uint64_t* arow = a.row(i);
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t mismatches =
            use_avx2
                ? detail::xor_popcount_words_avx2(arow, b.row(j), words)
                : detail::xor_popcount_words_scalar(arow, b.row(j), words);
        crow[j] = static_cast<float>(k - 2 * mismatches);
      }
    }
  });
}

Tensor xnor_matmul(const BitMatrix& a, const BitMatrix& b) {
  Tensor c{Shape{a.rows(), b.rows()}};
  xnor_gemm(a, b, c.data());
  return c;
}

Tensor xnor_conv2d(const Tensor& input, const ConvGeom& geom,
                   const BitMatrix& weight_bits, const Tensor& alpha) {
  LCRS_CHECK(input.rank() == 4 && input.dim(1) == geom.in_c &&
                 input.dim(2) == geom.in_h && input.dim(3) == geom.in_w,
             "xnor_conv2d input mismatch");
  const std::int64_t out_c = weight_bits.rows();
  LCRS_CHECK(weight_bits.cols() == geom.patch_size(),
             "xnor_conv2d weight patch mismatch");
  LCRS_CHECK(alpha.numel() == out_c, "xnor_conv2d alpha count mismatch");
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom.patch_size();
  const std::int64_t in_image = geom.in_c * geom.in_h * geom.in_w;
  const Tensor k = input_scale_K(input, geom);

  Tensor out{Shape{n, out_c, oh, ow}};
  // Scratch is hoisted out of the batch loop: the old per-sample
  // `BitMatrix in_bits(pixels, patch)` re-allocated and zero-filled the
  // packed patches for every image, which dominated small-image batches.
  // pack_signs overwrites every word (tails included), so reuse needs no
  // clear between samples.
  std::vector<float> rows(static_cast<std::size_t>(pixels * patch));
  BitMatrix in_bits(pixels, patch);
  for (std::int64_t b = 0; b < n; ++b) {
    const float* img = input.data() + b * in_image;
    // Lower patches pixel-major, then fuse binarize+bitpack in one pass.
    // Spatial zero padding lowers as 0.0f, which packs as +1 -- the
    // sign(0) = +1 convention the float-sign reference path uses.
    im2col_rows(img, geom, rows.data(), /*pad_value=*/0.0f);
    pack_signs(rows.data(), pixels, patch, &in_bits);
    // [out_c x pixels], straight into this sample's output block.
    xnor_gemm(weight_bits, in_bits, out.data() + b * out_c * pixels);
  }
  // The same scaling pass as the reference path, so the two are
  // bit-identical, not merely close.
  apply_alpha_k(out.data(), n, out_c, pixels, alpha.data(), k.data());
  return out;
}

Tensor xnor_linear(const Tensor& input, const BitMatrix& weight_bits,
                   const Tensor& alpha, const Tensor* bias) {
  LCRS_CHECK(input.rank() == 2 && input.dim(1) == weight_bits.cols(),
             "xnor_linear input mismatch");
  const std::int64_t n = input.dim(0);
  const std::int64_t out = weight_bits.rows();
  LCRS_CHECK(alpha.numel() == out, "xnor_linear alpha count mismatch");
  const Tensor beta = input_scale_rows(input);
  const BitMatrix in_bits = BitMatrix::pack(input.data(), n, input.dim(1));

  Tensor y = xnor_matmul(in_bits, weight_bits);  // [n x out]
  apply_alpha_k(y.data(), n, out, 1, alpha.data(), beta.data());
  // Separate pass, as in BinaryLinear::forward: scale rounds, then bias.
  if (bias != nullptr) add_row_bias(y.data(), n, out, bias->data());
  return y;
}

}  // namespace lcrs::binary
