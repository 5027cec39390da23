// Forward-only execution engine for WebModel blobs.
//
// This is the C++ core the paper compiles to JavaScript/WASM with
// Emscripten (Fig. 3): it has no dependency on the training framework --
// only the tensor math and the XNOR kernels -- and runs the conv1 +
// binary-branch slice on the "browser". Its float ops (conv, linear bias,
// ReLU, HardTanh, max pooling, GAP) call the same kernels as the
// framework's layers (tensor/forward_kernels.h), so its outputs match the
// framework's inference byte for byte; tests check it op by op (the paper
// validates against PyTorch the same way).
#pragma once

#include "webinfer/format.h"

namespace lcrs::webinfer {

class Engine {
 public:
  explicit Engine(WebModel model);

  /// Loads a serialized blob (what the browser downloads).
  static Engine from_bytes(const std::vector<std::uint8_t>& bytes);

  /// Runs the op list on a [N, C, H, W] batch; returns logits
  /// [N, num_classes].
  Tensor forward(const Tensor& input) const;

  /// Runs only the shared conv1 stage; the result is Algorithm 2's `t`,
  /// the tensor uploaded to the edge server on an entropy miss.
  Tensor forward_shared(const Tensor& input) const;

  /// Runs the binary branch on a shared feature map.
  Tensor forward_branch(const Tensor& shared) const;

  /// Softmax probabilities for a single [1, C, H, W] sample.
  Tensor predict_probabilities(const Tensor& sample) const;

  const WebModel& model() const { return model_; }

  /// Serialized size of the model (browser download bytes).
  std::int64_t model_bytes() const;

 private:
  WebModel model_;
};

}  // namespace lcrs::webinfer
