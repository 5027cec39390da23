// The float forward ops, one loop each, over raw spans. nn's layers and
// the browser engine (webinfer) both call these after checking shapes,
// so the engine needs no nn code and matches it byte for byte.
#pragma once

#include <cstdint>

#include "tensor/im2col.h"

namespace lcrs {

/// out[b] = W[out_c x patch] * im2col(x[b], pad_value) (+ bias[oc] on
/// channel oc if `bias` is not null) for n images back to back; samples
/// run in parallel.
void conv2d_forward(const float* x, std::int64_t n, const ConvGeom& g,
                    const float* weight, std::int64_t out_c,
                    const float* bias, float* out, float pad_value = 0.0f);

/// One sample's [channels x pixels] map: row c += bias[c].
void add_channel_bias(float* out, std::int64_t channels, std::int64_t pixels,
                      const float* bias);

/// A [rows x cols] matrix: every row += bias[0..cols).
void add_row_bias(float* out, std::int64_t rows, std::int64_t cols,
                  const float* bias);

/// y = x > 0 ? x : 0 (NaN and -0 map to +0). `y` may equal `x`.
void relu_forward(const float* x, float* y, std::int64_t n);

/// y = clamp(x, -1, 1) (NaN passes through). `y` may equal `x`.
void hardtanh_forward(const float* x, float* y, std::int64_t n);

/// Square-window max pooling of `planes` [h x w] planes into
/// [(h - kernel) / stride + 1] x [(w - kernel) / stride + 1] each. NaN
/// never wins a window. With `argmax`, also records each max's flat input
/// index for the backward pass.
void maxpool_forward(const float* x, std::int64_t planes, std::int64_t h,
                     std::int64_t w, std::int64_t kernel, std::int64_t stride,
                     float* out, std::int64_t* argmax = nullptr);

/// out[p] = mean of plane p's `plane` elements, summed in order.
void global_avg_pool_forward(const float* x, std::int64_t planes,
                             std::int64_t plane, float* out);

}  // namespace lcrs
