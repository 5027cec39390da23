#include "edge/local_runtime.h"

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "models/accounting.h"
#include "tensor/serialize.h"

namespace lcrs::edge {

LocalRuntime::LocalRuntime(core::CompositeNetwork& net,
                           core::ExitPolicy policy, sim::CostModel cost,
                           const Shape& sample_shape, sim::Scenario scenario)
    : net_(net), policy_(policy), cost_(std::move(cost)),
      scenario_(scenario) {
  LCRS_CHECK(sample_shape.rank() == 3, "sample_shape must be [C, H, W]");
  const auto shared_prof =
      models::profile_layers(net.shared_stage(), sample_shape);
  const Shape shared_shape{net.shared_out_c(), net.shared_out_h(),
                           net.shared_out_w()};
  const auto branch_prof =
      models::profile_layers(net.binary_branch(), shared_shape);
  const auto rest_prof = models::profile_layers(net.main_rest(), shared_shape);

  browser_forward_ms_ =
      cost_.browser_compute_ms(shared_prof, 0, shared_prof.size()) +
      cost_.browser_compute_ms(branch_prof, 0, branch_prof.size());
  edge_rest_ms_ = cost_.edge_compute_ms(rest_prof, 0, rest_prof.size());
  upload_bytes_ = feature_map_wire_bytes(shared_shape.numel());

  browser_model_bytes_ = 8;
  for (const auto& l : shared_prof) browser_model_bytes_ += l.param_bytes;
  for (const auto& l : branch_prof) {
    browser_model_bytes_ += l.is_binary ? l.binary_bytes : l.param_bytes;
  }
}

SimStep LocalRuntime::classify(const Tensor& sample, Rng& rng) {
  const core::InferenceResult r =
      core::collaborative_infer(net_, policy_, sample);

  SimStep step;
  step.label = r.predicted;
  step.exit_point = r.exit_point;
  step.entropy = r.entropy;
  step.browser_ms = browser_forward_ms_;
  if (r.exit_point == core::ExitPoint::kMainBranch) {
    step.upload_ms = cost_.network().upload_ms_jittered(upload_bytes_, rng);
    step.edge_ms = edge_rest_ms_;
    step.download_ms =
        cost_.network().download_ms_jittered(scenario_.result_bytes, rng);
  }

  // Simulated per-stage timings feed the same registry as the socket
  // runtime's measured ones, so Fig. 6/10-style breakdowns come from a
  // snapshot either way. (Exit counters are recorded by
  // collaborative_infer via record_exit_decision.)
  obs::Registry& reg = obs::Registry::global();
  reg.histogram(obs::names::kSimBrowserUs).record(step.browser_ms * 1e3);
  if (r.exit_point == core::ExitPoint::kMainBranch) {
    reg.histogram(obs::names::kSimUploadUs).record(step.upload_ms * 1e3);
    reg.histogram(obs::names::kSimEdgeUs).record(step.edge_ms * 1e3);
    reg.histogram(obs::names::kSimDownloadUs).record(step.download_ms * 1e3);
  }
  return step;
}

double LocalRuntime::amortized_load_ms() const {
  return cost_.network().download_ms(browser_model_bytes_) /
         static_cast<double>(scenario_.session_samples);
}

}  // namespace lcrs::edge
