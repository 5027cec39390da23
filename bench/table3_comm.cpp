// Reproduces Table III: average communication cost (ms) per recognition
// -- model loading (amortized over the page session) plus the transfer of
// intermediate results or the initial task -- for the same approaches and
// networks as Table II.
#include <cstdio>

#include "baselines/edge_only.h"
#include "baselines/edgent.h"
#include "baselines/lcrs_approach.h"
#include "baselines/mobile_only.h"
#include "baselines/neurosurgeon.h"
#include "bench_util.h"
#include "common/logging.h"

using namespace lcrs;

namespace {

double paper_exit_fraction(models::Arch arch) {
  switch (arch) {
    case models::Arch::kLeNet:
      return 0.84;
    case models::Arch::kAlexNet:
      return 0.79;
    case models::Arch::kResNet18:
      return 0.73;
    case models::Arch::kVgg16:
      return 0.78;
  }
  return 0.8;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;

  std::printf("Table III: average communication cost on the mobile web "
              "browser (ms)\n\n");
  std::printf("%-10s %10s %14s %10s %13s %11s\n", "-", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only", "(Edge-only)");
  bench::print_rule(74);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    baselines::ModelUnderTest model;
    model.name = models::arch_name(arch);
    model.layers = bench::full_width_profile(arch);
    model.input_elems = 3 * 32 * 32;

    Rng rng(9);
    const models::ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
    core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
    baselines::LcrsModel lm =
        baselines::profile_lcrs_model(net, Shape{3, 32, 32});
    lm.name = model.name;
    lm.exit_fraction = paper_exit_fraction(arch);

    std::printf("%-10s %10.0f %14.0f %10.0f %13.0f %11.0f\n",
                model.name.c_str(),
                baselines::evaluate_lcrs(lm, cost, scenario).comm_ms,
                baselines::evaluate_neurosurgeon(model, cost, scenario)
                    .comm_ms,
                baselines::evaluate_edgent(model, cost, scenario).comm_ms,
                baselines::evaluate_mobile_only(model, cost, scenario)
                    .comm_ms,
                baselines::evaluate_edge_only(model, cost, scenario).comm_ms);
  }

  bench::print_rule(74);
  std::printf("\nPaper reference (ms): LCRS 19/340/188/234; Neurosurgeon "
              "72/512/297/365;\nEdgent 56/492/287/324; Mobile-only "
              "170/9104/4406/5832 (LeNet/AlexNet/ResNet18/VGG16).\n");
  std::printf("Note: our Neurosurgeon re-optimizes its partition per cost "
              "model, so its VGG16\ncomm can undercut LCRS; the paper pinned "
              "Neurosurgeon to literature partition\npoints. See "
              "EXPERIMENTS.md.\n");
  return 0;
}
