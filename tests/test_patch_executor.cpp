// The core correctness invariant of patch-based inference: the compiled
// patch model must reproduce layer-based results bit for bit (paper Fig. 1a
// — halos exist precisely so that no receptive field is truncated), and its
// observed run must report every feature map it computes exactly as the
// layer-based executor computes it.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "models/weights.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/calibration.h"

namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void expect_identical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

nn::Graph stage_net() {
  nn::Graph g("stage");
  const int in = g.add_input(nn::TensorShape{17, 17, 3});  // odd extent
  const int stem = g.add_conv2d(in, 8, 3, 2, 1, nn::Activation::ReLU6);
  const int a = g.add_conv2d(stem, 8, 3, 1, 1, nn::Activation::ReLU);
  const int res = g.add_residual_add(stem, a, nn::Activation::None);
  const int dw = g.add_depthwise_conv2d(res, 3, 2, 1, nn::Activation::ReLU6);
  const int head = g.add_conv2d(dw, 16, 1, 1, 0, nn::Activation::ReLU);
  const int gap = g.add_global_avg_pool(head);
  g.add_fully_connected(gap, 10, nn::Activation::None);
  models::init_parameters(g, 31);
  return g;
}

struct GridCase {
  int split;
  int grid;
};

class PatchEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(PatchEquivalence, MatchesLayerBasedBitForBit) {
  const auto [split, grid] = GetParam();
  const nn::Graph g = stage_net();
  PatchSpec spec;
  spec.split_layer = split;
  spec.grid_rows = spec.grid_cols = grid;
  const CompiledPatchModel pexec(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 7);
  expect_identical(pexec.run(in), exec.run(in));
}

INSTANTIATE_TEST_SUITE_P(SplitsAndGrids, PatchEquivalence,
                         ::testing::Values(GridCase{1, 2}, GridCase{1, 3},
                                           GridCase{3, 2}, GridCase{3, 3},
                                           GridCase{4, 2}, GridCase{4, 4},
                                           GridCase{5, 3}));

TEST(CompiledPatchModel, MobileNetV2PatchInferenceExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const PatchSpec spec = plan_mcunetv2(g, {/*grid=*/2, /*downsample=*/4});
  const CompiledPatchModel pexec(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 9);
  expect_identical(pexec.run(in), exec.run(in));
}

TEST(CompiledPatchModel, SqueezeNetConcatStageExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.5f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_squeezenet(cfg);
  const PatchSpec spec = plan_mcunetv2(g, {/*grid=*/2, /*downsample=*/4});
  const CompiledPatchModel pexec(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 10);
  expect_identical(pexec.run(in), exec.run(in));
}

TEST(CropFromRegion, ZeroFillsOutOfBounds) {
  nn::Tensor have(nn::TensorShape{2, 2, 1});
  have.at(0, 0, 0) = 1.0f;
  have.at(0, 1, 0) = 2.0f;
  have.at(1, 0, 0) = 3.0f;
  have.at(1, 1, 0) = 4.0f;
  // `have` covers the full 2x2 map; ask for a region extending into padding.
  nn::Tensor out(nn::TensorShape{3, 3, 1});
  for (float& v : out.data()) v = 9.0f;  // stale scratch must be cleared
  crop_from_region_into(have, Region{{0, 2}, {0, 2}},
                        Region{{-1, 2}, {-1, 2}}, {2, 2, 1}, out);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);  // padding
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(2, 2, 0), 4.0f);
}

TEST(CropFromRegion, FailsWhenRequiredDataMissing) {
  nn::Tensor have(nn::TensorShape{2, 2, 1});
  // `have` covers rows 0..2 only; asking for row 3 (valid in an 8-row map)
  // must fail loudly rather than fabricate data.
  nn::Tensor out(nn::TensorShape{3, 2, 1});
  EXPECT_THROW(crop_from_region_into(have, Region{{0, 2}, {0, 2}},
                                     Region{{1, 4}, {0, 2}}, {8, 8, 1}, out),
               std::logic_error);
}

}  // namespace
}  // namespace qmcu::patch

// ---------------------------------------------------------------------------
// Zoo-wide property sweep: patch-based inference must be bit-exact for every
// architecture in the model zoo, including the pooling-heavy (VGG16,
// SqueezeNet) and branched (InceptionV3) topologies whose stages exercise
// region pooling and concat propagation.
namespace qmcu::patch {
namespace {

class ZooWidePatchEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(ZooWidePatchEquivalence, BitExactAcrossTheZoo) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_model(GetParam(), cfg);
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchModel pexec(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  nn::Tensor in(g.shape(0));
  nn::Rng rng(21);
  for (float& v : in.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const nn::Tensor a = pexec.run(in);
  const nn::Tensor b = exec.run(in);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[i], b.data()[i]) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooWidePatchEquivalence,
                         ::testing::Values("mobilenetv2", "mcunet", "mnasnet",
                                           "fbnet_a", "ofa_cpu", "resnet18",
                                           "vgg16", "squeezenet",
                                           "inceptionv3"));

}  // namespace
}  // namespace qmcu::patch

// ---------------------------------------------------------------------------
// The observed run, zoo-wide, float and uniform int8: every (branch, step)
// is reported exactly once over the step's out_region, every tail layer
// once, and each view holds exactly the layer-based feature map.
namespace qmcu::patch {
namespace {

// The layer-based map `full` over `r` must equal `view` element for element.
template <class T>
void expect_region_of(const T& full, const Region& r, const T& view,
                      const std::string& what) {
  ASSERT_EQ(view.shape(),
            (nn::TensorShape{r.y.size(), r.x.size(), full.shape().c}))
      << what;
  if constexpr (std::is_same_v<T, nn::QTensor>) {
    ASSERT_EQ(view.params(), full.params()) << what;
  }
  for (int y = r.y.begin; y < r.y.end; ++y) {
    for (int x = r.x.begin; x < r.x.end; ++x) {
      for (int c = 0; c < full.shape().c; ++c) {
        ASSERT_EQ(view.at(y - r.y.begin, x - r.x.begin, c), full.at(y, x, c))
            << what << " at (" << y << ", " << x << ", " << c << ")";
      }
    }
  }
}

// Runs `model` observed on `in` and checks every report against `memo`, the
// layer-based maps indexed by layer id.
template <class Model, class T>
void expect_observed_maps(const Model& model, const nn::Tensor& in,
                          const std::vector<T>& memo, const T& output) {
  const PatchPlan& plan = model.plan();
  const nn::Graph& g = model.graph();
  const int split = plan.spec.split_layer;
  std::vector<std::vector<int>> step_seen(plan.branches.size());
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    step_seen[b].assign(plan.branches[b].steps.size(), 0);
  }
  std::vector<int> tail_seen(static_cast<std::size_t>(g.size()), 0);
  const T out = model.run(in, [&](int b, int index, const T& fm) {
    if (b >= 0) {
      ASSERT_LT(static_cast<std::size_t>(b), plan.branches.size());
      const PatchBranch& branch = plan.branches[static_cast<std::size_t>(b)];
      ASSERT_LT(static_cast<std::size_t>(index), branch.steps.size());
      ++step_seen[static_cast<std::size_t>(b)][static_cast<std::size_t>(index)];
      const BranchStep& step = branch.steps[static_cast<std::size_t>(index)];
      expect_region_of(memo[static_cast<std::size_t>(step.layer_id)],
                       step.out_region, fm,
                       "branch " + std::to_string(b) + " step " +
                           std::to_string(index));
      return;
    }
    ASSERT_EQ(b, -1);
    ASSERT_GT(index, split);
    ASSERT_LT(index, g.size());
    ++tail_seen[static_cast<std::size_t>(index)];
    const T& want = memo[static_cast<std::size_t>(index)];
    expect_region_of(want, full_region(want.shape()), fm,
                     "tail layer " + std::to_string(index));
  });
  for (std::size_t b = 0; b < step_seen.size(); ++b) {
    for (std::size_t s = 0; s < step_seen[b].size(); ++s) {
      EXPECT_EQ(step_seen[b][s], 1) << "branch " << b << " step " << s;
    }
  }
  for (int id = 0; id < g.size(); ++id) {
    EXPECT_EQ(tail_seen[static_cast<std::size_t>(id)], id > split ? 1 : 0)
        << "layer " << id;
  }
  expect_region_of(output, full_region(output.shape()), out, "output");
}

class ZooWideObservedRun : public ::testing::TestWithParam<std::string> {
 protected:
  nn::Graph graph() const {
    models::ModelConfig cfg;
    cfg.width_multiplier = 0.25f;
    cfg.resolution = 48;
    cfg.num_classes = 10;
    return models::make_model(GetParam(), cfg);
  }
};

TEST_P(ZooWideObservedRun, FloatReportsEveryLayerBasedMap) {
  const nn::Graph g = graph();
  const CompiledPatchModel model(g,
                                 build_patch_plan(g, plan_mcunetv2(g, {2, 4})));
  const nn::Tensor in = random_input(g.shape(0), 61);
  const nn::Executor exec(g);
  const std::vector<nn::Tensor> memo = exec.run_all(in);
  expect_observed_maps(model, in, memo, memo.back());
}

TEST_P(ZooWideObservedRun, UniformInt8ReportsEveryLayerBasedMap) {
  const nn::Graph g = graph();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 62)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const CompiledPatchQuantModel model(
      g, build_patch_plan(g, plan_mcunetv2(g, {2, 4})), cfg);
  const nn::Tensor in = random_input(g.shape(0), 63);
  const nn::QuantExecutor exec(g, cfg);
  const std::vector<nn::QTensor> memo = exec.run_all(in);
  expect_observed_maps(model, in, memo, exec.run(in));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooWideObservedRun,
                         ::testing::Values("mobilenetv2", "mcunet", "mnasnet",
                                           "fbnet_a", "ofa_cpu", "resnet18",
                                           "vgg16", "squeezenet",
                                           "inceptionv3"));

}  // namespace
}  // namespace qmcu::patch
