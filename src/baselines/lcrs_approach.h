// LCRS priced under the same cost model as the baselines.
//
// The browser downloads conv1 (float) plus the bit-packed binary branch,
// runs both per sample, and uploads the conv1 feature map only for the
// (1 - exit_fraction) of samples the entropy check rejects (Algorithm 2).
#pragma once

#include "baselines/approach.h"
#include "core/composite.h"

namespace lcrs::baselines {

/// Profile of a trained composite network for cost evaluation.
struct LcrsModel {
  std::string name;
  std::vector<models::LayerProfile> shared;  // conv1 stage
  std::vector<models::LayerProfile> branch;  // binary branch
  std::vector<models::LayerProfile> rest;    // edge-side main rest
  std::int64_t input_elems = 0;
  std::int64_t shared_out_elems = 0;  // conv1 output tensor elements
  double exit_fraction = 0.8;         // measured P(exit at browser)

  /// Bytes the browser downloads: header, float conv1, packed branch.
  std::int64_t browser_model_bytes() const;
  /// Per-sample browser compute: conv1 plus the binary branch.
  double browser_forward_ms(const sim::CostModel& cost) const;
  /// Per-sample edge compute of the main rest.
  double edge_rest_ms(const sim::CostModel& cost) const;
  /// Wire bytes of the conv1 feature map uploaded on an entropy miss.
  std::int64_t upload_bytes() const;
};

/// Profiles `net`'s three stages for one [C, H, W] sample. The name and
/// exit_fraction keep their defaults; callers fill them in.
LcrsModel profile_lcrs_model(core::CompositeNetwork& net,
                             const Shape& sample_shape);

ApproachCost evaluate_lcrs(const LcrsModel& model, const sim::CostModel& cost,
                           const sim::Scenario& scenario);

/// Split costs of the two exit paths (feeds Fig. 10's LCRS-B / LCRS-M).
struct LcrsPathCosts {
  double exit_binary_ms = 0.0;  // end-to-end when the sample exits locally
  double exit_main_ms = 0.0;    // end-to-end when the edge completes it
};
LcrsPathCosts lcrs_path_costs(const LcrsModel& model,
                              const sim::CostModel& cost,
                              const sim::Scenario& scenario);

}  // namespace lcrs::baselines
