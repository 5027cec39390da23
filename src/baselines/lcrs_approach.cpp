#include "baselines/lcrs_approach.h"

#include "tensor/serialize.h"

namespace lcrs::baselines {

std::int64_t LcrsModel::browser_model_bytes() const {
  std::int64_t bytes = 8;  // file header
  for (const auto& l : shared) bytes += l.param_bytes;
  for (const auto& l : branch) {
    bytes += l.is_binary ? l.binary_bytes : l.param_bytes;
  }
  return bytes;
}

double LcrsModel::browser_forward_ms(const sim::CostModel& cost) const {
  return cost.browser_compute_ms(shared, 0, shared.size()) +
         cost.browser_compute_ms(branch, 0, branch.size());
}

double LcrsModel::edge_rest_ms(const sim::CostModel& cost) const {
  return cost.edge_compute_ms(rest, 0, rest.size());
}

std::int64_t LcrsModel::upload_bytes() const {
  return feature_map_wire_bytes(shared_out_elems);
}

LcrsModel profile_lcrs_model(core::CompositeNetwork& net,
                             const Shape& sample_shape) {
  LCRS_CHECK(sample_shape.rank() == 3, "sample_shape must be [C, H, W]");
  const Shape shared_shape{net.shared_out_c(), net.shared_out_h(),
                           net.shared_out_w()};
  LcrsModel m;
  m.shared = models::profile_layers(net.shared_stage(), sample_shape);
  m.branch = models::profile_layers(net.binary_branch(), shared_shape);
  m.rest = models::profile_layers(net.main_rest(), shared_shape);
  m.input_elems = sample_shape.numel();
  m.shared_out_elems = shared_shape.numel();
  return m;
}

ApproachCost evaluate_lcrs(const LcrsModel& model, const sim::CostModel& cost,
                           const sim::Scenario& scenario) {
  LCRS_CHECK(model.exit_fraction >= 0.0 && model.exit_fraction <= 1.0,
             "exit_fraction must be a probability");
  const double n = static_cast<double>(scenario.session_samples);
  const double miss = 1.0 - model.exit_fraction;

  ApproachCost c;
  c.name = "LCRS";
  c.browser_model_bytes = model.browser_model_bytes();
  const double load = cost.network().download_ms(c.browser_model_bytes) / n;

  // On an entropy miss: upload conv1's map, complete at the edge, reply.
  const double browser_ms = model.browser_forward_ms(cost);
  const double up = cost.network().upload_ms(model.upload_bytes());
  const double down = cost.network().download_ms(scenario.result_bytes);
  const double collab_comm = up + down;
  const double collab_total = up + down + model.edge_rest_ms(cost);
  c.comm_ms = load + miss * collab_comm;
  c.compute_ms = browser_ms + miss * (collab_total - collab_comm);
  c.total_ms = c.comm_ms + c.compute_ms;
  c.device_energy_mj = cost.energy().compute_mj(browser_ms) +
                       cost.energy().tx_mj(miss * up) +
                       cost.energy().rx_mj(load + miss * down);
  record_approach_cost(c);
  return c;
}

LcrsPathCosts lcrs_path_costs(const LcrsModel& model,
                              const sim::CostModel& cost,
                              const sim::Scenario& scenario) {
  const double n = static_cast<double>(scenario.session_samples);
  const double load =
      cost.network().download_ms(model.browser_model_bytes()) / n;
  const double browser = model.browser_forward_ms(cost);

  const double collab = cost.network().upload_ms(model.upload_bytes()) +
                        cost.network().download_ms(scenario.result_bytes) +
                        model.edge_rest_ms(cost);
  LcrsPathCosts p;
  p.exit_binary_ms = load + browser;
  p.exit_main_ms = load + browser + collab;
  return p;
}

}  // namespace lcrs::baselines
