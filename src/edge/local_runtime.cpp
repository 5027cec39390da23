#include "edge/local_runtime.h"

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"

namespace lcrs::edge {

LocalRuntime::LocalRuntime(core::CompositeNetwork& net,
                           core::ExitPolicy policy, sim::CostModel cost,
                           const Shape& sample_shape, sim::Scenario scenario)
    : net_(net),
      policy_(policy),
      cost_(std::move(cost)),
      scenario_(scenario),
      profile_(baselines::profile_lcrs_model(net, sample_shape)) {}

SimStep LocalRuntime::classify(const Tensor& sample, Rng& rng) {
  const core::InferenceResult r =
      core::collaborative_infer(net_, policy_, sample);

  SimStep step;
  step.label = r.predicted;
  step.exit_point = r.exit_point;
  step.entropy = r.entropy;
  step.browser_ms = profile_.browser_forward_ms(cost_);
  if (r.exit_point == core::ExitPoint::kMainBranch) {
    step.upload_ms =
        cost_.network().upload_ms_jittered(profile_.upload_bytes(), rng);
    step.edge_ms = profile_.edge_rest_ms(cost_);
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
  return cost_.network().download_ms(profile_.browser_model_bytes()) /
         static_cast<double>(scenario_.session_samples);
}

}  // namespace lcrs::edge
