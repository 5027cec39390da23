// In-process collaborative runtime with a simulated clock.
//
// Runs *real* inference through the composite network while pricing each
// stage (browser compute, upload, edge compute, reply) on the cost model,
// so Fig. 6 / Fig. 10 latency series come from genuine per-sample exit
// decisions plus calibrated device/link timings -- the closest laptop
// equivalent of the paper's Mate9-plus-X3640M4 testbed.
#pragma once

#include "baselines/lcrs_approach.h"
#include "core/composite.h"
#include "core/inference.h"
#include "sim/cost_model.h"

namespace lcrs::edge {

/// Timeline of one recognition.
struct SimStep {
  std::int64_t label = -1;
  core::ExitPoint exit_point = core::ExitPoint::kBinaryBranch;
  double entropy = 0.0;
  double browser_ms = 0.0;
  double upload_ms = 0.0;
  double edge_ms = 0.0;
  double download_ms = 0.0;

  double total_ms() const {
    return browser_ms + upload_ms + edge_ms + download_ms;
  }
};

class LocalRuntime {
 public:
  /// Profiles the network's three stages once at construction. The
  /// sample_shape is the per-sample input geometry [C, H, W].
  LocalRuntime(core::CompositeNetwork& net, core::ExitPolicy policy,
               sim::CostModel cost, const Shape& sample_shape,
               sim::Scenario scenario = {});

  /// One Algorithm 2 recognition with a jittered link draw.
  SimStep classify(const Tensor& sample, Rng& rng);

  /// Amortized model-load cost per sample for this runtime's session.
  double amortized_load_ms() const;

  std::int64_t browser_model_bytes() const {
    return profile_.browser_model_bytes();
  }

 private:
  core::CompositeNetwork& net_;
  core::ExitPolicy policy_;
  sim::CostModel cost_;
  sim::Scenario scenario_;
  baselines::LcrsModel profile_;  // the three stages, priced by cost_
};

}  // namespace lcrs::edge
