// Input scaling factor K for binary convolution (paper Eq. 4).
//
// XNOR-Net approximates I * W  ~  (sign(I) (*) sign(W)) . K . alpha where
// K spatially redistributes the input magnitude: K = A (*) k with
// A(h, w) = mean_c |I(c, h, w)| and k a kernel-sized box filter. K has one
// entry per output pixel and is shared by all output channels.
#pragma once

#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace lcrs::binary {

/// Computes K for a batch: input [N, C, H, W] -> K [N, out_h, out_w]
/// using the same kernel/stride/pad geometry as the convolution.
Tensor input_scale_K(const Tensor& input, const ConvGeom& geom);

/// Per-row mean absolute value of a rank-2 [batch x features] tensor; the
/// FC analogue of K (beta in XNOR-Net). Returns [batch].
Tensor input_scale_rows(const Tensor& input);

/// XNOR-Net's output scaling, in place over an [n x channels x pixels]
/// block: out[b][c][p] *= alpha[c] * k[b][p]. Convolutions pass K
/// [n x pixels]; linear layers pass beta [n] with pixels = 1.
void apply_alpha_k(float* out, std::int64_t n, std::int64_t channels,
                   std::int64_t pixels, const float* alpha, const float* k);

}  // namespace lcrs::binary
