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

namespace {

double browser_forward_ms(const LcrsModel& m, const sim::CostModel& cost) {
  return cost.browser_compute_ms(m.shared, 0, m.shared.size()) +
         cost.browser_compute_ms(m.branch, 0, m.branch.size());
}

double collaborate_extra_ms(const LcrsModel& m, const sim::CostModel& cost,
                            const sim::Scenario& scenario, double* comm_out) {
  const std::int64_t upload_bytes = feature_map_wire_bytes(m.shared_out_elems);
  const double up = cost.network().upload_ms(upload_bytes);
  const double down = cost.network().download_ms(scenario.result_bytes);
  const double edge = cost.edge_compute_ms(m.rest, 0, m.rest.size());
  if (comm_out != nullptr) *comm_out = up + down;
  return up + down + edge;
}

}  // namespace

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

  const double browser_ms = browser_forward_ms(model, cost);
  c.compute_ms = browser_ms;
  double collab_comm = 0.0;
  const double collab_total =
      collaborate_extra_ms(model, cost, scenario, &collab_comm);
  c.comm_ms = load + miss * collab_comm;
  c.compute_ms += miss * (collab_total - collab_comm);
  c.total_ms = c.comm_ms + c.compute_ms;

  const std::int64_t upload_bytes =
      feature_map_wire_bytes(model.shared_out_elems);
  const double up = cost.network().upload_ms(upload_bytes);
  const double down = cost.network().download_ms(scenario.result_bytes);
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
  const double browser = browser_forward_ms(model, cost);

  LcrsPathCosts p;
  p.exit_binary_ms = load + browser;
  p.exit_main_ms =
      load + browser + collaborate_extra_ms(model, cost, scenario, nullptr);
  return p;
}

}  // namespace lcrs::baselines
