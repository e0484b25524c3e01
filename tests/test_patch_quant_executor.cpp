// The quantized deployment path: patch-based integer inference must be
// bit-identical to layer-based integer inference in uniform mode, and the
// mixed-precision mode (the VDQS assignment actually executing) must track
// the float reference within quantization noise. The test-only reference
// (patch_reference.h) must itself agree with layer-based inference where
// both apply.
#include <gtest/gtest.h>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/weights.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch_reference.h"
#include "quant/calibration.h"
#include "quant/fake_quant.h"

namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// Stage with a *non-activated* conv before a padded max pool: the padding
// exclusion semantics matter here (negative values reach the pool window).
nn::Graph pooled_net() {
  nn::Graph g("pooled");
  const int in = g.add_input(nn::TensorShape{19, 19, 3});
  const int a = g.add_conv2d(in, 8, 3, 1, 1, nn::Activation::None);
  const int p = g.add_max_pool(a, 3, 2, 1);
  const int b = g.add_conv2d(p, 8, 3, 1, 1, nn::Activation::ReLU);
  const int q = g.add_avg_pool(b, 3, 2, 1);
  const int c = g.add_conv2d(q, 16, 1, 1, 0, nn::Activation::ReLU);
  g.add_global_avg_pool(c);
  g.add_fully_connected(g.size() - 1, 10, nn::Activation::None);
  models::init_parameters(g, 77);
  return g;
}

nn::Graph mbv2_net() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

struct QuantEquivCase {
  int split;
  int grid;
};

class QuantPatchEquivalence
    : public ::testing::TestWithParam<QuantEquivCase> {};

TEST_P(QuantPatchEquivalence, UniformInt8MatchesLayerBasedExactly) {
  const auto [split, grid] = GetParam();
  const nn::Graph g = pooled_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 1),
                                      random_input(g.shape(0), 2)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));

  PatchSpec spec;
  spec.split_layer = split;
  spec.grid_rows = spec.grid_cols = grid;
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);

  const nn::Tensor in = random_input(g.shape(0), 3);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

INSTANTIATE_TEST_SUITE_P(SplitsAndGrids, QuantPatchEquivalence,
                         ::testing::Values(QuantEquivCase{1, 2},
                                           QuantEquivCase{2, 2},
                                           QuantEquivCase{2, 3},
                                           QuantEquivCase{4, 2},
                                           QuantEquivCase{5, 3}));

TEST(QuantPatchEquivalence, MobileNetV2UniformInt8Exact) {
  const nn::Graph g = mbv2_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 4)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 5);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

TEST(ReferencePatchQuant, AssembledStageMatchesLayerBasedInt8) {
  const nn::Graph g = pooled_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 6)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  PatchSpec spec;
  spec.split_layer = 4;
  spec.grid_rows = spec.grid_cols = 3;
  const ReferencePatchQuant ref(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 7);
  const auto memo = qexec.run_all(in);
  expect_q_identical(ref.run_assembled(in), memo[4]);
  expect_q_identical(ref.run(in), qexec.run(in));
}

TEST(CompiledPatchQuantModel, MixedPrecisionFromQuantMcuPlanRuns) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);

  const CompiledPatchQuantModel pexec(g, plan.patch_plan, deploy_cfg,
                                      branch_cfgs);
  const nn::Executor ref(g);
  const nn::Tensor in = ds.image(11);
  const nn::QTensor out = pexec.run(in);
  const nn::Tensor deq = nn::dequantize(out);
  const nn::Tensor ref_out = ref.run(in);
  // Mixed-precision output must stay a valid distribution near the float
  // reference (sub-byte noise allowed, NaNs and garbage are not).
  float sum = 0.0f;
  for (float v : deq.data()) {
    EXPECT_GE(v, -0.01f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 0.2f);
  EXPECT_LT(quant::output_mse(deq, ref_out), 0.05);
}

TEST(CompiledPatchQuantModel, MixedPrecisionNoisierThanUniformInt8) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg8 =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);

  const CompiledPatchQuantModel uniform(g, plan.patch_plan, cfg8);
  const CompiledPatchQuantModel mixed(g, plan.patch_plan, deploy_cfg,
                                      branch_cfgs);
  const nn::Executor ref(g);

  double err_uniform = 0.0;
  double err_mixed = 0.0;
  for (int i = 10; i < 13; ++i) {
    const nn::Tensor in = ds.image(i);
    const nn::Tensor ref_out = ref.run(in);
    err_uniform +=
        quant::output_mse(nn::dequantize(uniform.run(in)), ref_out);
    err_mixed += quant::output_mse(nn::dequantize(mixed.run(in)), ref_out);
  }
  EXPECT_LE(err_uniform, err_mixed + 1e-9);
}

TEST(CompiledPatchQuantModel, ValidatesBranchConfigShapes) {
  const nn::Graph g = pooled_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 8)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  PatchSpec spec;
  spec.split_layer = 2;
  spec.grid_rows = spec.grid_cols = 2;
  const PatchPlan plan = build_patch_plan(g, spec);
  std::vector<BranchQuantConfig> bad(plan.branches.size() - 1);
  EXPECT_THROW(CompiledPatchQuantModel(g, plan, cfg, bad),
               std::invalid_argument);
}

TEST(CropFromRegionQ, FillsPaddingWithZeroPoint) {
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 3.0f, 8);
  nn::QTensor have(nn::TensorShape{2, 2, 1}, p);
  have.at(0, 0, 0) = 5;
  nn::QTensor out(nn::TensorShape{3, 3, 1}, p);
  crop_from_region_q_into(have, Region{{0, 2}, {0, 2}},
                          Region{{-1, 2}, {-1, 2}}, {2, 2, 1}, out);
  EXPECT_EQ(out.at(0, 0, 0), static_cast<std::int8_t>(p.zero_point));
  EXPECT_EQ(out.at(1, 1, 0), 5);
}

}  // namespace
}  // namespace qmcu::patch

// ---------------------------------------------------------------------------
// Zoo subset for the integer path (pooling-heavy and branched topologies).
namespace qmcu::patch {
namespace {

class ZooWideQuantEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(ZooWideQuantEquivalence, UniformInt8BitExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_model(GetParam(), cfg);
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 31)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto qcfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), qcfg);
  const nn::QuantExecutor qexec(g, qcfg);
  const nn::Tensor in = random_input(g.shape(0), 32);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

INSTANTIATE_TEST_SUITE_P(ZooSubset, ZooWideQuantEquivalence,
                         ::testing::Values("mobilenetv2", "squeezenet",
                                           "inceptionv3", "resnet18",
                                           "vgg16"));

}  // namespace
}  // namespace qmcu::patch
