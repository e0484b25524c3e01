// float_kernels.h — float32 reference kernels, NHWC, batch 1.
//
// These are the golden-path implementations: every quantized kernel and the
// patch runtime are validated against them. Geometry (kernel, stride,
// symmetric zero padding, fused activation) comes from the Layer spec so the
// kernels stay in lock-step with graph shape inference.
//
// Every kernel has two entry points: the value-returning form (allocates its
// output) and an `_into` form that writes into a caller-provided, correctly
// shaped destination — the form the compiled arena executors use so the hot
// path performs no per-layer allocation. Both compute bit-identical results.
#pragma once

#include <span>

#include "nn/graph.h"
#include "nn/tensor.h"

namespace qmcu::nn::ops {

// 2-D convolution. `weights` layout [out_c][kh][kw][in_c]; `bias` may be
// empty (treated as zero).
Tensor conv2d_f32(const Tensor& in, const Layer& l,
                  std::span<const float> weights, std::span<const float> bias);
void conv2d_f32_into(const Tensor& in, const Layer& l,
                     std::span<const float> weights,
                     std::span<const float> bias, Tensor& out);

// Depthwise convolution (channel multiplier 1). `weights` layout [kh][kw][c].
Tensor depthwise_conv2d_f32(const Tensor& in, const Layer& l,
                            std::span<const float> weights,
                            std::span<const float> bias);
void depthwise_conv2d_f32_into(const Tensor& in, const Layer& l,
                               std::span<const float> weights,
                               std::span<const float> bias, Tensor& out);

// Fully connected over the flattened input. `weights` layout [out][in].
Tensor fully_connected_f32(const Tensor& in, const Layer& l,
                           std::span<const float> weights,
                           std::span<const float> bias);
void fully_connected_f32_into(const Tensor& in, const Layer& l,
                              std::span<const float> weights,
                              std::span<const float> bias, Tensor& out);

Tensor max_pool_f32(const Tensor& in, const Layer& l);
void max_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out);
Tensor avg_pool_f32(const Tensor& in, const Layer& l);
void avg_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out);
Tensor global_avg_pool_f32(const Tensor& in);
void global_avg_pool_f32_into(const Tensor& in, Tensor& out);

Tensor add_f32(const Tensor& lhs, const Tensor& rhs, Activation act);
void add_f32_into(const Tensor& lhs, const Tensor& rhs, Activation act,
                  Tensor& out);
Tensor concat_f32(std::span<const Tensor* const> inputs);
void concat_f32_into(std::span<const Tensor* const> inputs, Tensor& out);
Tensor softmax_f32(const Tensor& in);
void softmax_f32_into(const Tensor& in, Tensor& out);

// Fused activation applied in place.
void apply_activation_f32(Tensor& t, Activation act);
float activate(float v, Activation act);

}  // namespace qmcu::nn::ops
