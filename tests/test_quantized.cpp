// Tests of the int8 payload accounting (the compression alternative the
// binary branch is compared against).
#include <gtest/gtest.h>

#include "binary/quantized.h"
#include "models/accounting.h"
#include "models/zoo.h"

namespace lcrs::binary {
namespace {

TEST(Int8Payload, RoughlyQuartersAFullPrecisionModel) {
  Rng rng(5);
  const models::ModelConfig cfg{models::Arch::kAlexNet, 3, 32, 32, 10, 0.5};
  auto mono = models::build_monolithic(cfg, rng);
  const std::int64_t float_bytes = mono->param_bytes();
  const std::int64_t int8_bytes = int8_payload_bytes(*mono);
  EXPECT_GT(float_bytes, int8_bytes * 3);
  EXPECT_LT(float_bytes, int8_bytes * 5);
}

TEST(Int8Payload, BinaryPayloadStillWinsByFar) {
  // The ablation's headline ordering: 1-bit branch << int8 model << float
  // model. Compare the AlexNet main branch against its binary branch.
  Rng rng(6);
  const models::ModelConfig cfg{models::Arch::kAlexNet, 3, 32, 32, 10, 1.0};
  auto mono = models::build_monolithic(cfg, rng);
  models::MainBranch mb = models::build_main_branch(cfg, rng);
  auto branch = models::build_binary_branch(
      models::default_branch(models::Arch::kAlexNet), mb.out_c, mb.out_h,
      mb.out_w, 10, rng);
  const std::int64_t binary_bytes = models::browser_payload_bytes(*branch);
  const std::int64_t int8_bytes = int8_payload_bytes(*mono);
  EXPECT_GT(int8_bytes, binary_bytes * 10);
}

}  // namespace
}  // namespace lcrs::binary
