// patch_reference.h — an independent reference for quantized patch-based
// inference, for tests only.
//
// Mixed mode (per-branch sub-byte step params) has no layer-based
// equivalent, so the compiled patch runtime is checked against this
// straightforward per-step implementation instead: every branch step
// computes into a fresh tensor through the value-returning kernels of a
// Reference-tier backend, and every table the runtime precomputes
// (pool-propagated effective params, per-step params, rescaled branch
// biases) is derived here from the graph and the configs rather than read
// from the model under test. Branch tiles are requantized into the
// assembled map's params and the tail runs layer by layer.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/executor.h"
#include "nn/graph.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "patch/compiled_patch_model.h"
#include "patch/patch_plan.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

class ReferencePatchQuant {
 public:
  // Uniform mode when `branch_cfgs` is empty, else mixed mode.
  ReferencePatchQuant(const nn::Graph& g, PatchPlan plan,
                      nn::ActivationQuantConfig cfg,
                      std::vector<BranchQuantConfig> branch_cfgs = {})
      : graph_(&g),
        plan_(std::move(plan)),
        cfg_(std::move(cfg)),
        effective_(nn::effective_output_params(g, cfg_)),
        branch_cfgs_(std::move(branch_cfgs)),
        params_(nn::QuantizedParameters::build_shared(g, cfg_)),
        branch_bias_(build_branch_bias(g, plan_, branch_cfgs_, *params_)) {}

  // Branch b's step feature maps, result[s] over steps[s].out_region.
  [[nodiscard]] std::vector<nn::QTensor> run_branch(const nn::Tensor& input,
                                                    int b) const {
    return run_branch(quantize_input(input), b);
  }

  // The reassembled cut-layer feature map (in the tail's params).
  [[nodiscard]] nn::QTensor run_assembled(const nn::Tensor& input) const {
    const nn::Graph& g = *graph_;
    const int split = plan_.spec.split_layer;
    const nn::QTensor qinput = quantize_input(input);
    nn::QTensor assembled(g.shape(split),
                          effective_[static_cast<std::size_t>(split)]);
    for (int b = 0; b < static_cast<int>(plan_.branches.size()); ++b) {
      const BranchStep& last =
          plan_.branches[static_cast<std::size_t>(b)].steps.back();
      // The branch slice is requantized into the shared accumulation
      // buffer's params (identity in uniform mode).
      const nn::QTensor tile = backend_.requantize(
          run_branch(qinput, b).back(), assembled.params());
      const Region& r = last.out_region;
      for (int y = r.y.begin; y < r.y.end; ++y) {
        for (int x = r.x.begin; x < r.x.end; ++x) {
          for (int c = 0; c < assembled.shape().c; ++c) {
            assembled.at(y, x, c) = tile.at(y - r.y.begin, x - r.x.begin, c);
          }
        }
      }
    }
    return assembled;
  }

  // Every feature map from the cut on, indexed by layer id (earlier
  // entries are empty).
  [[nodiscard]] std::vector<nn::QTensor> run_tail(
      const nn::Tensor& input) const {
    const nn::Graph& g = *graph_;
    const int split = plan_.spec.split_layer;
    std::vector<nn::QTensor> memo(static_cast<std::size_t>(g.size()));
    memo[static_cast<std::size_t>(split)] = run_assembled(input);
    for (int id = split + 1; id < g.size(); ++id) {
      memo[static_cast<std::size_t>(id)] =
          nn::run_layer_q(g, id, memo, *params_,
                          effective_[static_cast<std::size_t>(id)], backend_);
    }
    return memo;
  }

  [[nodiscard]] nn::QTensor run(const nn::Tensor& input) const {
    return std::move(
        run_tail(input)[static_cast<std::size_t>(graph_->output())]);
  }

 private:
  [[nodiscard]] nn::QTensor quantize_input(const nn::Tensor& input) const {
    return nn::quantize(
        input,
        cfg_.params[static_cast<std::size_t>(graph_->inputs().front())]);
  }

  [[nodiscard]] const nn::QuantParams& step_params(int b, int s,
                                                   int layer_id) const {
    return branch_cfgs_.empty()
               ? effective_[static_cast<std::size_t>(layer_id)]
               : branch_cfgs_[static_cast<std::size_t>(b)]
                     .per_step[static_cast<std::size_t>(s)];
  }

  static nn::QTensor crop(const nn::QTensor& have, const Region& avail,
                          const Region& want, const nn::TensorShape& full) {
    nn::QTensor out(
        nn::TensorShape{want.y.size(), want.x.size(), have.shape().c},
        have.params());
    crop_from_region_q_into(have, avail, want, full, out);
    return out;
  }

  [[nodiscard]] std::vector<nn::QTensor> run_branch(const nn::QTensor& qinput,
                                                    int b) const {
    const nn::Graph& g = *graph_;
    const PatchBranch& branch = plan_.branches[static_cast<std::size_t>(b)];
    std::vector<nn::QTensor> regions(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const BranchStep& step = branch.steps[s];
      const int id = step.layer_id;
      const nn::Layer& layer = g.layer(id);
      const nn::QuantParams& out_p = step_params(b, static_cast<int>(s), id);
      const auto producer = [&](int input_id) {
        const int p = branch.step_of(input_id);
        QMCU_ENSURE(p >= 0 && p < static_cast<int>(s),
                    "producer step missing from branch");
        return static_cast<std::size_t>(p);
      };
      const auto producer_crop = [&](int input_id, const Region& want) {
        const std::size_t p = producer(input_id);
        return crop(regions[p], branch.steps[p].out_region, want,
                    g.shape(input_id));
      };
      switch (layer.kind) {
        case nn::OpKind::Input:
          regions[s] = backend_.requantize(
              crop(qinput, full_region(g.shape(id)), step.out_region,
                   g.shape(id)),
              out_p);
          break;
        case nn::OpKind::Conv2D:
        case nn::OpKind::DepthwiseConv2D: {
          // The unclamped crop materialises the zero padding (the
          // producer's zero point), so the kernel runs pad-free.
          const nn::QTensor padded =
              producer_crop(layer.inputs[0], step.in_region);
          nn::Layer local = layer;
          local.pad_h = local.pad_w = 0;
          const std::span<const std::int32_t> bias =
              branch_cfgs_.empty()
                  ? std::span<const std::int32_t>(
                        params_->bias[static_cast<std::size_t>(id)])
                  : std::span<const std::int32_t>(
                        branch_bias_[static_cast<std::size_t>(b)][s]);
          const auto& w = params_->weights[static_cast<std::size_t>(id)];
          regions[s] =
              layer.kind == nn::OpKind::Conv2D
                  ? backend_.conv2d(padded, local, w.data, w.params, bias,
                                    out_p)
                  : backend_.depthwise_conv2d(padded, local, w.data,
                                              w.params, bias, out_p);
          break;
        }
        case nn::OpKind::MaxPool:
        case nn::OpKind::AvgPool: {
          // Pooling excludes padding from the window; see region_pool.h.
          const std::size_t p = producer(layer.inputs[0]);
          regions[s] = pool_region_q(regions[p], branch.steps[p].out_region,
                                     layer, step.out_region,
                                     g.shape(layer.inputs[0]));
          break;
        }
        case nn::OpKind::Add:
          regions[s] =
              backend_.add(producer_crop(layer.inputs[0], step.out_region),
                           producer_crop(layer.inputs[1], step.out_region),
                           layer.act, out_p);
          break;
        case nn::OpKind::Concat: {
          std::vector<nn::QTensor> parts;
          parts.reserve(layer.inputs.size());
          for (const int in : layer.inputs) {
            parts.push_back(producer_crop(in, step.out_region));
          }
          std::vector<const nn::QTensor*> ptrs;
          ptrs.reserve(parts.size());
          for (const nn::QTensor& t : parts) ptrs.push_back(&t);
          regions[s] = backend_.concat(ptrs, out_p);
          break;
        }
        default:
          QMCU_REQUIRE(false, "op kind not supported inside a patch stage: " +
                                  std::string(nn::to_string(layer.kind)));
      }
    }
    return regions;
  }

  const nn::Graph* graph_;
  PatchPlan plan_;
  nn::ActivationQuantConfig cfg_;
  std::vector<nn::QuantParams> effective_;
  std::vector<BranchQuantConfig> branch_cfgs_;
  std::shared_ptr<const nn::QuantizedParameters> params_;
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias_;
  mutable nn::ops::KernelBackend backend_{nn::ops::KernelTier::Reference};
};

}  // namespace qmcu::patch
