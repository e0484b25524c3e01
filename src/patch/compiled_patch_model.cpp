#include "patch/compiled_patch_model.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "nn/executor.h"
#include "nn/ops/float_kernels.h"
#include "nn/ops/lut/lut_kernels.h"
#include "nn/ops/requantize.h"
#include "patch/patch_cost.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

namespace {

using nn::ArenaRequest;

// Branch step liveness is identical across branches (same layer structure),
// so the unified timeline is: step indices [0, S) for the branch phase
// (slots reused branch after branch), then one step per tail layer.
struct PatchTimeline {
  std::vector<ArenaRequest> requests;
  int num_steps = 0;        // S
  int assembled_index = 0;  // request index of the reassembled cut layer
};

PatchTimeline build_timeline(const nn::Graph& g, const PatchPlan& plan,
                             std::int64_t elem_bytes) {
  PatchTimeline t;
  const PatchBranch& proto = plan.branches.front();
  t.num_steps = static_cast<int>(proto.steps.size());
  const int split = plan.spec.split_layer;
  const int tail_count = g.size() - split - 1;

  // Branch slots: the largest region any branch computes at each step.
  for (int s = 0; s < t.num_steps; ++s) {
    std::int64_t size = 0;
    for (const PatchBranch& b : plan.branches) {
      const BranchStep& step = b.steps[static_cast<std::size_t>(s)];
      const std::int64_t c = g.shape(step.layer_id).c;
      size = std::max(size, step.out_region.area() * c * elem_bytes);
    }
    t.requests.push_back({size, s, branch_last_use(g, proto, s)});
  }
  // Tail slots over layer-based lifetimes, shifted onto the timeline.
  for (int id = split + 1; id < g.size(); ++id) {
    t.requests.push_back({g.shape(id).elements() * elem_bytes,
                          t.num_steps + (id - split - 1),
                          t.num_steps + (nn::last_use_step(g, id) - split - 1)});
  }
  // The reassembled cut-layer map: written branch by branch, read by the
  // tail — live from the first branch step through its last tail consumer.
  const int last_use = nn::last_use_step(g, split);
  const int assembled_last = last_use > split
                                 ? t.num_steps + (last_use - split - 1)
                                 : std::max(t.num_steps - 1, 0);
  t.assembled_index = t.num_steps + tail_count;
  t.requests.push_back(
      {g.shape(split).elements() * elem_bytes, 0, assembled_last});
  return t;
}

// --- precision overloads -----------------------------------------------------
// The stateless per-precision primitives, overloaded on the tensor (or
// params) type so the runtime's step and band bodies are written once.

Unquantized params_of(const nn::Tensor&) { return {}; }
const nn::QuantParams& params_of(const nn::QTensor& t) { return t.params(); }

// The tensor type a Params type encodes (float or quantized int8).
template <class Params>
using TensorOf = std::conditional_t<std::is_same_v<Params, nn::QuantParams>,
                                    nn::QTensor, nn::Tensor>;
template <class T>
constexpr bool kQuantized = std::is_same_v<T, nn::QTensor>;

template <class Elem, class Params>
TensorOf<Params> view(const nn::TensorShape& shape, const Params& p,
                      Elem* data) {
  const std::span<Elem> span(data, static_cast<std::size_t>(shape.elements()));
  if constexpr (kQuantized<TensorOf<Params>>) {
    return nn::QTensor(shape, p, span);
  } else {
    return nn::Tensor(shape, span);
  }
}

// Binds a view onto its planned slot at `base`. `measured` tracks the
// furthest byte actually written through bound views (base-relative), not
// the planned slot size: the high-water is a measurement, and it reaches
// the planned peak because the largest branch fully exercises its slot.
template <class Params>
TensorOf<Params> bind_slot(std::uint8_t* base, const nn::ArenaSlot& slot,
                           const nn::TensorShape& shape, const Params& p,
                           std::int64_t& measured) {
  using Elem =
      std::conditional_t<kQuantized<TensorOf<Params>>, std::int8_t, float>;
  const std::int64_t bytes =
      shape.elements() * static_cast<std::int64_t>(sizeof(Elem));
  QMCU_ENSURE(bytes <= slot.size, "bound view exceeds its arena slot");
  measured = std::max(measured, slot.offset + bytes);
  return view(shape, p, reinterpret_cast<Elem*>(base + slot.offset));
}

// Copies region `want` (unclamped) of a map with extent `full`, held over
// `avail` by `have`, into a temporary from the grow-only scratch pool.
// Out-of-bounds positions carry real 0 (the zero point when quantized),
// i.e. genuine zero padding.
nn::Tensor crop(nn::ops::ScratchArena& a, const nn::Tensor& have,
                const Region& avail, const Region& want,
                const nn::TensorShape& full) {
  const nn::TensorShape s{want.y.size(), want.x.size(), full.c};
  nn::Tensor out = view(s, Unquantized{},
                        a.f32(static_cast<std::size_t>(s.elements())).data());
  crop_from_region_into(have, avail, want, full, out);
  return out;
}

nn::QTensor crop(nn::ops::ScratchArena& a, const nn::QTensor& have,
                 const Region& avail, const Region& want,
                 const nn::TensorShape& full) {
  const nn::TensorShape s{want.y.size(), want.x.size(), full.c};
  nn::QTensor out = view(s, have.params(),
                         a.i8(static_cast<std::size_t>(s.elements())).data());
  crop_from_region_q_into(have, avail, want, full, out);
  return out;
}

// Tiles are disjoint, so concurrent merges from several workers commute.
// A quantized tile is requantized into the assembled map's params (an
// identity copy in uniform mode). With `changed` set the merge compares
// before writing (streaming change propagation).
template <class T>
void merge_into(const T& tile, const Region& r, T& assembled, bool* changed) {
  if constexpr (kQuantized<T>) {
    if (changed == nullptr) return merge_region_q(tile, r, assembled);
    *changed = merge_region_q_changed(tile, r, assembled);
  } else {
    if (changed == nullptr) return merge_region_f32(tile, r, assembled);
    *changed = merge_region_f32_changed(tile, r, assembled);
  }
}

template <class T>
void add_into(nn::ops::KernelBackend& backend, const T& a, const T& b,
              nn::Activation act, T& out) {
  if constexpr (kQuantized<T>) {
    backend.add_into(a, b, act, out);
  } else {
    nn::ops::add_f32_into(a, b, act, out);
  }
}

template <class T>
void concat_into(nn::ops::KernelBackend& backend, const std::vector<T>& parts,
                 T& out) {
  std::vector<const T*> ptrs;
  ptrs.reserve(parts.size());
  for (const T& t : parts) ptrs.push_back(&t);
  if constexpr (kQuantized<T>) {
    backend.concat_into(ptrs, out);
  } else {
    nn::ops::concat_f32_into(ptrs, out);
  }
}

// A zero-copy view of rows [rows.begin, rows.end) of a full feature map —
// rows are contiguous in HWC layout, so a tail band writes (and element-wise
// bands read) straight through the bound arena view.
template <class T>
T row_view(T& t, const Interval& rows) {
  const nn::TensorShape& s = t.shape();
  return view(nn::TensorShape{rows.size(), s.w, s.c}, params_of(t),
              t.data().data() + static_cast<std::ptrdiff_t>(rows.begin) * s.w *
                                    s.c);
}

// --- scheduling and streaming helpers ----------------------------------------

constexpr bool rows_overlap(const Interval& a, const Interval& b) {
  return a.begin < b.end && b.begin < a.end;
}

// The streaming layout widens every shared slot's lifetime to the whole
// timeline: retained bytes (assembled tiles, tail maps) must survive from
// frame to frame, so no shared slot may ever be overlaid on another.
std::vector<ArenaRequest> widen_shared(std::vector<ArenaRequest> requests) {
  int last = 0;
  for (const ArenaRequest& r : requests) last = std::max(last, r.last_step);
  for (ArenaRequest& r : requests) {
    r.first_step = 0;
    r.last_step = last;
  }
  return requests;
}

template <class Make>
const nn::ParallelArenaPlan& cached_plan(
    std::unordered_map<int, nn::ParallelArenaPlan>& cache, int num_workers,
    Make make) {
  auto it = cache.find(num_workers);
  if (it == cache.end()) it = cache.emplace(num_workers, make()).first;
  return it->second;
}

// How many branch tasks each grid row contributes for `workers` lanes:
// roughly two tasks per lane across the whole grid keeps the scheduler fed
// without shredding the cost-weighted coalescing.
int chunks_per_grid_row(const PatchPlan& plan, int workers) {
  return std::max(1, (2 * workers + plan.spec.grid_rows - 1) /
                         plan.spec.grid_rows);
}

}  // namespace

std::vector<PipelinedTailLayer> build_pipelined_tail(
    const nn::Graph& g, const PatchPlan& plan, int bands_per_layer) {
  QMCU_REQUIRE(bands_per_layer >= 1, "need at least one band per layer");
  const int split = plan.spec.split_layer;
  const int grid_rows = plan.spec.grid_rows;
  const int grid_cols = plan.spec.grid_cols;

  // The assembled-map row interval each grid row's branches merge; every
  // branch in a grid row shares its y tile (row-major branch order).
  std::vector<Interval> merged_rows(static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    merged_rows[static_cast<std::size_t>(r)] =
        plan.branches[static_cast<std::size_t>(r * grid_cols)]
            .steps.back()
            .out_region.y;
  }

  std::vector<PipelinedTailLayer> prefix;
  std::vector<int> prefix_index(static_cast<std::size_t>(g.size()), -1);
  for (int id = split + 1; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    const bool bandable = l.kind == nn::OpKind::Conv2D ||
                          l.kind == nn::OpKind::DepthwiseConv2D ||
                          l.kind == nn::OpKind::MaxPool ||
                          l.kind == nn::OpKind::AvgPool ||
                          l.kind == nn::OpKind::Add ||
                          l.kind == nn::OpKind::Concat;
    if (!bandable) break;
    bool inputs_banded = true;
    for (const int in : l.inputs) {
      if (in != split && prefix_index[static_cast<std::size_t>(in)] < 0) {
        inputs_banded = false;
        break;
      }
    }
    if (!inputs_banded) break;

    PipelinedTailLayer pl;
    pl.layer_id = id;
    const nn::TensorShape& os = g.shape(id);
    // A band of fewer rows than this costs more in scheduling than its
    // kernel work returns, so small maps get fewer bands (down to one —
    // still a task, so the layer overlaps whatever it does not depend on).
    constexpr int kMinRowsPerBand = 4;
    const int bands = std::clamp(
        std::min(bands_per_layer, os.h / kMinRowsPerBand), 1, os.h);
    pl.bands.reserve(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      pl.bands.push_back({j * os.h / bands, (j + 1) * os.h / bands});
    }
    pl.grid_row_deps.resize(static_cast<std::size_t>(bands));
    pl.band_deps.resize(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      const Region out_region{pl.bands[static_cast<std::size_t>(j)],
                              {0, os.w}};
      for (const int in : l.inputs) {
        const nn::TensorShape& is = g.shape(in);
        const Interval need =
            clamp(required_input_region(l, is, out_region).y, 0, is.h);
        if (need.empty()) continue;
        if (in == split) {
          for (int r = 0; r < grid_rows; ++r) {
            if (rows_overlap(merged_rows[static_cast<std::size_t>(r)],
                             need)) {
              pl.grid_row_deps[static_cast<std::size_t>(j)].push_back(r);
            }
          }
        } else {
          const int pi = prefix_index[static_cast<std::size_t>(in)];
          const PipelinedTailLayer& producer =
              prefix[static_cast<std::size_t>(pi)];
          for (int k = 0; k < static_cast<int>(producer.bands.size()); ++k) {
            if (rows_overlap(producer.bands[static_cast<std::size_t>(k)],
                             need)) {
              pl.band_deps[static_cast<std::size_t>(j)].push_back({pi, k});
            }
          }
        }
      }
    }
    prefix_index[static_cast<std::size_t>(id)] =
        static_cast<int>(prefix.size());
    prefix.push_back(std::move(pl));
  }
  return prefix;
}

std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params) {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  branch_bias.resize(branch_cfgs.size());
  for (std::size_t b = 0; b < branch_cfgs.size(); ++b) {
    const PatchBranch& branch = plan.branches[b];
    branch_bias[b].resize(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const int id = branch.steps[s].layer_id;
      const nn::Layer& l = g.layer(id);
      if (!nn::is_mac_op(l.kind) || g.bias(id).empty()) continue;
      const int p = branch.step_of(l.inputs[0]);
      QMCU_ENSURE(p >= 0, "MAC step without in-branch producer");
      branch_bias[b][s] = nn::ops::quantize_bias(
          g.bias(id),
          branch_cfgs[b].per_step[static_cast<std::size_t>(p)].scale,
          params.weights[static_cast<std::size_t>(id)].params.scale);
    }
  }
  return branch_bias;
}

// --- region crops ------------------------------------------------------------

void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out) {
  QMCU_REQUIRE(have.shape().h == avail.y.size() &&
                   have.shape().w == avail.x.size(),
               "tensor extents must match its declared region");
  const int c = have.shape().c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  // Zero-fill first: destinations may be reused scratch, and out-of-bounds
  // positions must read as zero padding.
  std::memset(out.data().data(), 0, out.data().size() * sizeof(float));
  for (int gy = want.y.begin; gy < want.y.end; ++gy) {
    for (int gx = want.x.begin; gx < want.x.end; ++gx) {
      const int oy = gy - want.y.begin;
      const int ox = gx - want.x.begin;
      const bool in_bounds = gy >= 0 && gy < full.h && gx >= 0 && gx < full.w;
      if (!in_bounds) continue;  // zero padding
      QMCU_ENSURE(gy >= avail.y.begin && gy < avail.y.end &&
                      gx >= avail.x.begin && gx < avail.x.end,
                  "required element missing from available region");
      const int sy = gy - avail.y.begin;
      const int sx = gx - avail.x.begin;
      for (int ch = 0; ch < c; ++ch) {
        out.at(oy, ox, ch) = have.at(sy, sx, ch);
      }
    }
  }
}

void crop_from_region_q_into(const nn::QTensor& have, const Region& avail,
                             const Region& want, const nn::TensorShape& full,
                             nn::QTensor& out) {
  QMCU_REQUIRE(have.shape().h == avail.y.size() &&
                   have.shape().w == avail.x.size(),
               "tensor extents must match its declared region");
  const int c = have.shape().c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  QMCU_REQUIRE(out.params() == have.params(),
               "crop destination must carry the source params");
  const auto zp = static_cast<std::int8_t>(have.params().zero_point);
  for (int gy = want.y.begin; gy < want.y.end; ++gy) {
    for (int gx = want.x.begin; gx < want.x.end; ++gx) {
      const int oy = gy - want.y.begin;
      const int ox = gx - want.x.begin;
      const bool in_bounds = gy >= 0 && gy < full.h && gx >= 0 && gx < full.w;
      if (!in_bounds) {
        for (int ch = 0; ch < c; ++ch) out.at(oy, ox, ch) = zp;
        continue;
      }
      QMCU_ENSURE(gy >= avail.y.begin && gy < avail.y.end &&
                      gx >= avail.x.begin && gx < avail.x.end,
                  "required element missing from available region");
      const int sy = gy - avail.y.begin;
      const int sx = gx - avail.x.begin;
      for (int ch = 0; ch < c; ++ch) {
        out.at(oy, ox, ch) = have.at(sy, sx, ch);
      }
    }
  }
}

// --- float traits ------------------------------------------------------------

void FloatPatchTraits::input_tile(nn::ops::KernelBackend&,
                                  nn::ops::ScratchArena&, const Tensor& input,
                                  const Region& region, Tensor& out) const {
  crop_from_region_into(input, full_region(input.shape()), region,
                        input.shape(), out);
}

void FloatPatchTraits::conv(nn::ops::KernelBackend& backend, const Tensor& in,
                            const nn::Layer& local, int layer_id, int, int,
                            Tensor& out) const {
  const nn::Graph& g = *graph_;
  if (local.kind == nn::OpKind::Conv2D) {
    backend.conv2d_f32_into(in, local, g.weights(layer_id), g.bias(layer_id),
                            out);
  } else {
    backend.depthwise_conv2d_f32_into(in, local, g.weights(layer_id),
                                      g.bias(layer_id), out);
  }
}

void FloatPatchTraits::pool(const Tensor& in, const Region& avail,
                            const nn::Layer& l, const Region& want,
                            const nn::TensorShape& full, Tensor& out) const {
  pool_region_f32_into(in, avail, l, want, full, out);
}

void FloatPatchTraits::run_layer(int id, std::vector<Tensor>& memo,
                                 nn::ops::KernelBackend& backend) const {
  nn::run_layer_f32_into(*graph_, id, memo, backend,
                         memo[static_cast<std::size_t>(id)]);
}

// --- quantized traits --------------------------------------------------------

QuantPatchTraits::QuantPatchTraits(
    const nn::Graph& g, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs,
    std::shared_ptr<const nn::QuantizedParameters> params,
    std::shared_ptr<const nn::PrecompiledBundle> bundle)
    : graph_(&g),
      cfg_(std::move(cfg)),
      effective_(nn::effective_output_params(g, cfg_)),
      branch_cfgs_(std::move(branch_cfgs)),
      params_(params ? std::move(params)
                     : nn::QuantizedParameters::build_shared(g, cfg_)),
      bundle_(std::move(bundle)) {
  // AvgPool reciprocal tables for every window size the graph uses —
  // built now so the run path (possibly many workers at once) only reads.
  for (int id = 0; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    if (l.kind != nn::OpKind::AvgPool) continue;
    const int count = l.kernel_h * l.kernel_w;
    pool_tables_.emplace(count, nn::ops::AvgPoolMultipliers(count));
  }
}

const nn::QuantParams& QuantPatchTraits::branch_params(int branch, int step,
                                                       int layer_id) const {
  if (!branch_cfgs_.empty()) {
    return branch_cfgs_[static_cast<std::size_t>(branch)]
        .per_step[static_cast<std::size_t>(step)];
  }
  return effective_[static_cast<std::size_t>(layer_id)];
}

const nn::QTensor& QuantPatchTraits::stage_input(const nn::Tensor& input,
                                                 std::uint8_t* base,
                                                 const nn::ArenaSlot* slot,
                                                 std::int64_t& measured) const {
  // Written once per run, before any branch reads it.
  const int input_layer = graph_->inputs().front();
  qinput_ = bind_slot(base, *slot, input.shape(),
                      cfg_.params[static_cast<std::size_t>(input_layer)],
                      measured);
  nn::quantize_into(input, qinput_);
  return qinput_;
}

void QuantPatchTraits::input_tile(nn::ops::KernelBackend& backend,
                                  nn::ops::ScratchArena& crops,
                                  const Tensor& input, const Region& region,
                                  Tensor& out) const {
  // The input patch tile is requantized straight into the branch's params
  // (mixed mode stores it sub-byte, uniform mode at int8).
  backend.requantize_into(
      crop(crops, input, full_region(input.shape()), region, input.shape()),
      out);
}

void QuantPatchTraits::conv(nn::ops::KernelBackend& backend, const Tensor& in,
                            const nn::Layer& local, int layer_id, int branch,
                            int step, Tensor& out) const {
  // Mixed-mode branch steps use biases rescaled to the branch's own input
  // scale; tail layers and uniform mode use the deployment table.
  const std::span<const std::int32_t> bias =
      branch >= 0 && !branch_cfgs_.empty()
          ? std::span<const std::int32_t>(
                branch_bias_[static_cast<std::size_t>(branch)]
                            [static_cast<std::size_t>(step)])
          : params_->bias[static_cast<std::size_t>(layer_id)];
  const auto& w = params_->weights[static_cast<std::size_t>(layer_id)];
  if (local.kind == nn::OpKind::Conv2D) {
    backend.conv2d_into(in, local, w.data, w.params, bias, out);
  } else {
    backend.depthwise_conv2d_into(in, local, w.data, w.params, bias, out);
  }
}

void QuantPatchTraits::pool(const Tensor& in, const Region& avail,
                            const nn::Layer& l, const Region& want,
                            const nn::TensorShape& full, Tensor& out) const {
  const nn::ops::AvgPoolMultipliers* table = nullptr;
  if (l.kind == nn::OpKind::AvgPool) {
    const auto it = pool_tables_.find(l.kernel_h * l.kernel_w);
    QMCU_ENSURE(it != pool_tables_.end(),
                "AvgPool window missing from the precomputed tables");
    table = &it->second;
  }
  pool_region_q_into(in, avail, l, want, full, table, out);
}

void QuantPatchTraits::run_layer(int id, std::vector<Tensor>& memo,
                                 nn::ops::KernelBackend& backend) const {
  nn::run_layer_q_into(*graph_, id, memo, *params_, backend,
                       memo[static_cast<std::size_t>(id)]);
}

void QuantPatchTraits::prepack_lane(nn::ops::KernelBackend& backend,
                                    const PatchPlan& plan) const {
  // Pre-pack the conv/fc panels any task on this lane may need (branch
  // steps, tail bands, the join) so a lane's first run pays no packing.
  // Adopted artifact panels make this a no-op for everything baked. Gated
  // on the quantized params: artifacts load a topology-only graph.
  const nn::Graph& g = *graph_;
  const auto prepack = [&](int layer_id) {
    const nn::Layer& l = g.layer(layer_id);
    const auto& w = params_->weights[static_cast<std::size_t>(layer_id)];
    if (w.data.empty() || (l.kind != nn::OpKind::Conv2D &&
                           l.kind != nn::OpKind::FullyConnected)) {
      return;
    }
    const int n = l.out_channels;
    const int k = static_cast<int>(w.data.size()) / n;
    backend.prepack(w.data, n, k);
    // Sub-byte inputs may take the LUT path. Only tables the current force
    // mode can run are baked: 4-bit tables cost 32*n*k bytes and only run
    // under QMCU_FORCE_LUT.
    const int bits = effective_[static_cast<std::size_t>(l.inputs[0])].bits;
    if (nn::ops::lut::lut_planned(bits)) {
      backend.prepack_lut(w.data, n, k, bits);
    }
  };
  for (const BranchStep& step : plan.branches.front().steps) {
    prepack(step.layer_id);
  }
  for (int id = plan.spec.split_layer + 1; id < g.size(); ++id) prepack(id);
}

void QuantPatchTraits::after_stream_frame(int first_layer,
                                          std::span<const Tensor> memo) const {
  if (!stats_hook_) return;
  for (int id = first_layer; id < graph_->size(); ++id) {
    stats_hook_(id, memo[static_cast<std::size_t>(id)]);
  }
}

// --- the runtime -------------------------------------------------------------

template <class Traits>
void PatchRuntime<Traits>::compile(std::vector<PipelinedTailLayer> pipeline) {
  QMCU_REQUIRE(!plan_.branches.empty(), "plan has no branches");
  const nn::Graph& g = graph();
  this->adopt_kernels(main_.backend);
  PatchTimeline t = build_timeline(g, plan_, Traits::kElemBytes);
  num_steps_ = t.num_steps;
  assembled_slot_ = t.assembled_index;
  if constexpr (Traits::kStagesInput) {
    // The staged full input, cropped by every branch: live across the
    // whole branch phase.
    input_slot_ = static_cast<int>(t.requests.size());
    t.requests.push_back(
        {g.shape(g.inputs().front()).elements() * Traits::kElemBytes, 0,
         std::max(num_steps_ - 1, 0)});
  }
  aplan_ = nn::ArenaPlanner().plan(t.requests);
  // Parallel layout inputs: branch-step slots become the per-worker slice,
  // everything else the shared region (same order, offset by S).
  slice_requests_.assign(t.requests.begin(),
                         t.requests.begin() + num_steps_);
  shared_requests_.assign(t.requests.begin() + num_steps_, t.requests.end());
  // Row-banded tail prefix (band count tied to the patch grid's row
  // granularity), branch pricing for cost-weighted task chunking, and the
  // widening horizon for plan_pipelined.
  pipeline_ = pipeline.empty()
                  ? build_pipelined_tail(g, plan_,
                                         std::max(2, plan_.spec.grid_rows))
                  : std::move(pipeline);
  branch_costs_ = branch_costs(plan_);
  pipeline_horizon_ = num_steps_ + static_cast<int>(pipeline_.size()) - 1;
  for (const PipelinedTailLayer& pl : pipeline_) {
    band_offset_.push_back(total_bands_);
    total_bands_ += static_cast<int>(pl.bands.size());
  }
}

template <class Traits>
const nn::ParallelArenaPlan& PatchRuntime<Traits>::pipelined_plan(
    int num_workers) const {
  return cached_plan(pipelined_pplans_, num_workers, [&] {
    return nn::ArenaPlanner().plan_pipelined(slice_requests_, shared_requests_,
                                             num_workers, pipeline_horizon_);
  });
}

template <class Traits>
const nn::ParallelArenaPlan& PatchRuntime<Traits>::streaming_plan(
    int num_workers) const {
  return cached_plan(streaming_pplans_, num_workers, [&] {
    return nn::ArenaPlanner().plan_parallel(
        slice_requests_, widen_shared(shared_requests_), num_workers);
  });
}

template <class Traits>
std::int64_t PatchRuntime<Traits>::scratch_bytes() const {
  std::size_t total =
      main_.crops.footprint_bytes() + main_.backend.arena().footprint_bytes();
  for (const auto& l : lanes_) {
    total += l->crops.footprint_bytes() + l->backend.arena().footprint_bytes();
  }
  return static_cast<std::int64_t>(total);
}

template <class Traits>
auto PatchRuntime<Traits>::worker_lane(int lane) const -> Lane& {
  while (static_cast<int>(lanes_.size()) <= lane) {
    auto l = std::make_unique<Lane>(main_.backend.tier());
    this->adopt_kernels(l->backend);
    this->prepack_lane(l->backend, plan_);
    lanes_.push_back(std::move(l));
  }
  return *lanes_[static_cast<std::size_t>(lane)];
}

template <class Traits>
void PatchRuntime<Traits>::ready_lane(Lane& lane) const {
  // Compiled runs are per-run thread-affine: hand the lane to the thread
  // that runs it.
  lane.backend.rebind_thread();
  lane.crops.rebind_thread();
  lane.step_views.resize(static_cast<std::size_t>(num_steps_));
  lane.measured = 0;
}

template <class Traits>
std::span<std::uint8_t> PatchRuntime<Traits>::bind_arena(
    std::int64_t need, nn::ArenaSlab::Lease& lease,
    std::vector<std::uint8_t>& owned, bool retained) const {
  // Leased from the slab when one is attached, else a grow-only buffer. A
  // primed stream's retained bytes must stay where they are.
  const bool grow =
      arena_source_ != nullptr
          ? lease.empty() ||
                static_cast<std::int64_t>(lease.bytes().size()) < need
          : static_cast<std::int64_t>(owned.size()) < need;
  if (grow) {
    QMCU_ENSURE(!retained, "streaming arena cannot grow once primed");
    if (arena_source_ != nullptr) {
      lease = arena_source_->acquire(need);
    } else {
      owned.resize(static_cast<std::size_t>(need));
    }
  }
  return arena_source_ != nullptr ? lease.bytes()
                                  : std::span<std::uint8_t>(owned);
}

template <class Traits>
void PatchRuntime<Traits>::stage(const nn::Tensor& input, std::uint8_t* base,
                                 std::span<const nn::ArenaSlot> shared,
                                 std::int64_t& measured) const {
  const nn::Graph& g = graph();
  const int split = plan_.spec.split_layer;
  const auto slot = [&](int request) -> const nn::ArenaSlot& {
    return shared[static_cast<std::size_t>(request - num_steps_)];
  };
  run_input_ = &this->stage_input(
      input, base, input_slot_ >= 0 ? &slot(input_slot_) : nullptr, measured);
  tail_memo_.resize(static_cast<std::size_t>(g.size()));
  tail_memo_[static_cast<std::size_t>(split)] =
      bind_slot(base, slot(assembled_slot_), g.shape(split),
                this->layer_params(split), measured);
  for (int id = split + 1; id < g.size(); ++id) {
    tail_memo_[static_cast<std::size_t>(id)] =
        bind_slot(base, shared[static_cast<std::size_t>(id - split - 1)],
                  g.shape(id), this->layer_params(id), measured);
  }
}

template <class Traits>
void PatchRuntime<Traits>::exec_branch(std::int64_t b, std::uint8_t* base,
                                       std::span<const nn::ArenaSlot> slots,
                                       Lane& lane, bool* merge_changed,
                                       const Observer* observe) const {
  const nn::Graph& g = graph();
  const int bi = static_cast<int>(b);
  const PatchBranch& branch = plan_.branches[static_cast<std::size_t>(b)];
  for (int s = 0; s < num_steps_; ++s) {
    const BranchStep& step = branch.steps[static_cast<std::size_t>(s)];
    const nn::Layer& layer = g.layer(step.layer_id);
    const auto producer = [&](int input_id) {
      const int p = branch.step_of(input_id);
      QMCU_ENSURE(p >= 0 && p < s, "producer step missing from branch");
      return static_cast<std::size_t>(p);
    };
    const bool pool = layer.kind == nn::OpKind::MaxPool ||
                      layer.kind == nn::OpKind::AvgPool;
    // Pools never requantize: their slot carries the producer step's
    // actual params.
    Tensor out = bind_slot(
        base, slots[static_cast<std::size_t>(s)],
        nn::TensorShape{step.out_region.y.size(), step.out_region.x.size(),
                        g.shape(step.layer_id).c},
        pool ? typename Traits::Params(
                   params_of(lane.step_views[producer(layer.inputs[0])]))
             : typename Traits::Params(
                   this->branch_params(bi, s, step.layer_id)),
        lane.measured);
    lane.crops.reset();

    const auto producer_crop = [&](int input_id,
                                   const Region& want) -> Tensor {
      const std::size_t p = producer(input_id);
      return crop(lane.crops, lane.step_views[p], branch.steps[p].out_region,
                  want, g.shape(input_id));
    };

    switch (layer.kind) {
      case nn::OpKind::Input:
        this->input_tile(lane.backend, lane.crops, *run_input_,
                         step.out_region, out);
        break;
      case nn::OpKind::Conv2D:
      case nn::OpKind::DepthwiseConv2D: {
        // Zero padding is exactly what the unclamped crop materialises,
        // so run the kernel pad-free on the region tensor.
        const Tensor padded = producer_crop(layer.inputs[0], step.in_region);
        nn::Layer local = layer;
        local.pad_h = local.pad_w = 0;
        this->conv(lane.backend, padded, local, step.layer_id, bi, s, out);
        break;
      }
      case nn::OpKind::MaxPool:
      case nn::OpKind::AvgPool: {
        const std::size_t p = producer(layer.inputs[0]);
        this->pool(lane.step_views[p], branch.steps[p].out_region, layer,
                   step.out_region, g.shape(layer.inputs[0]), out);
        break;
      }
      case nn::OpKind::Add: {
        const Tensor x = producer_crop(layer.inputs[0], step.out_region);
        const Tensor y = producer_crop(layer.inputs[1], step.out_region);
        add_into(lane.backend, x, y, layer.act, out);
        break;
      }
      case nn::OpKind::Concat: {
        std::vector<Tensor> cropped;
        cropped.reserve(layer.inputs.size());
        for (int in : layer.inputs) {
          cropped.push_back(producer_crop(in, step.out_region));
        }
        concat_into(lane.backend, cropped, out);
        break;
      }
      default:
        QMCU_REQUIRE(false, "op kind not supported inside a patch stage: " +
                                std::string(nn::to_string(layer.kind)));
    }
    if (observe != nullptr) (*observe)(bi, s, out);
    lane.step_views[static_cast<std::size_t>(s)] = std::move(out);
  }
  const BranchStep& last = branch.steps.back();
  QMCU_ENSURE(last.layer_id == plan_.spec.split_layer,
              "branch must end at the cut layer");
  merge_into(lane.step_views[static_cast<std::size_t>(num_steps_ - 1)],
             last.out_region,
             tail_memo_[static_cast<std::size_t>(plan_.spec.split_layer)],
             merge_changed);
}

template <class Traits>
void PatchRuntime<Traits>::run_branch(std::int64_t b, std::uint8_t* base,
                                      std::span<const nn::ArenaSlot> slots,
                                      Lane& lane, StreamState* stream,
                                      const Observer* observe) const {
  // Streaming frames skip clean branches; dirty ones report whether their
  // merge changed any retained byte.
  if (stream != nullptr && !stream->branch_dirty[static_cast<std::size_t>(b)]) {
    return;
  }
  bool changed = false;
  exec_branch(b, base, slots, lane, stream != nullptr ? &changed : nullptr,
              observe);
  if (stream != nullptr) {
    stream->branches_run.fetch_add(1, std::memory_order_relaxed);
    if (changed) {
      stream->row_changed[static_cast<std::size_t>(b / plan_.spec.grid_cols)]
          .store(1, std::memory_order_relaxed);
      stream->any_changed.store(1, std::memory_order_relaxed);
    }
  }
  if (branch_hook_) branch_hook_(static_cast<int>(b));
}

template <class Traits>
void PatchRuntime<Traits>::run_band(std::size_t pi, std::size_t j, Lane& lane,
                                    StreamState* stream) const {
  // Streaming frames skip bands downstream of unchanged rows.
  if (stream != nullptr && !stream_band_needed(*stream, pi, j)) return;
  exec_tail_band(pipeline_[pi].layer_id, pipeline_[pi].bands[j], lane);
  if (stream != nullptr) stream_mark_band(*stream, pi, j);
}

template <class Traits>
void PatchRuntime<Traits>::exec_tail_band(int layer_id, const Interval& rows,
                                          Lane& lane) const {
  const nn::Graph& g = graph();
  const nn::Layer& l = g.layer(layer_id);
  const Region out_region{rows, {0, g.shape(layer_id).w}};
  const auto memo = [&](int id) -> Tensor& {
    return tail_memo_[static_cast<std::size_t>(id)];
  };
  Tensor out = row_view(memo(layer_id), rows);
  lane.crops.reset();
  switch (l.kind) {
    case nn::OpKind::Conv2D:
    case nn::OpKind::DepthwiseConv2D: {
      // Same construction as the branch steps: materialise the (unclamped)
      // input region with zero fill and run the kernel pad-free —
      // bit-identical to the padded full-map call.
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      const Tensor padded =
          crop(lane.crops, memo(l.inputs[0]), full_region(is),
               required_input_region(l, is, out_region), is);
      nn::Layer local = l;
      local.pad_h = local.pad_w = 0;
      this->conv(lane.backend, padded, local, layer_id, -1, -1, out);
      break;
    }
    case nn::OpKind::MaxPool:
    case nn::OpKind::AvgPool: {
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      this->pool(memo(l.inputs[0]), full_region(is), l, out_region, is, out);
      break;
    }
    case nn::OpKind::Add: {
      // Element-wise: the band reads exactly its own rows of both inputs —
      // pure views, no copy.
      const Tensor x = row_view(memo(l.inputs[0]), rows);
      const Tensor y = row_view(memo(l.inputs[1]), rows);
      add_into(lane.backend, x, y, l.act, out);
      break;
    }
    case nn::OpKind::Concat: {
      std::vector<Tensor> views;
      views.reserve(l.inputs.size());
      for (const int in : l.inputs) views.push_back(row_view(memo(in), rows));
      concat_into(lane.backend, views, out);
      break;
    }
    default:
      QMCU_ENSURE(false, "op kind is not row-bandable: " +
                             std::string(nn::to_string(l.kind)));
  }
}

template <class Traits>
void PatchRuntime<Traits>::run_tail_layer(int id, Lane& lane,
                                          const Observer* observe) const {
  this->run_layer(id, tail_memo_, lane.backend);
  if (observe != nullptr) {
    (*observe)(-1, id, tail_memo_[static_cast<std::size_t>(id)]);
  }
}

template <class Traits>
void PatchRuntime<Traits>::run_rest(Lane& lane, const StreamState* stream,
                                    const Observer* observe) const {
  if (stream != nullptr && !stream->frame_changed_output()) return;
  const int first_rest =
      plan_.spec.split_layer + 1 + static_cast<int>(pipeline_.size());
  for (int id = first_rest; id < graph().size(); ++id) {
    run_tail_layer(id, lane, observe);
  }
}

template <class Traits>
void PatchRuntime<Traits>::run_inline(std::uint8_t* base,
                                      std::span<const nn::ArenaSlot> slice,
                                      StreamState* stream,
                                      const Observer* observe) const {
  ready_lane(main_);
  for (std::size_t b = 0; b < plan_.branches.size(); ++b) {
    run_branch(static_cast<std::int64_t>(b), base, slice, main_, stream,
               observe);
  }
  for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
    const PipelinedTailLayer& pl = pipeline_[pi];
    const std::size_t nb = pl.bands.size();
    std::size_t needed = nb;
    if (stream != nullptr) {
      needed = 0;
      for (std::size_t j = 0; j < nb; ++j) {
        needed += stream_band_needed(*stream, pi, j) ? 1 : 0;
      }
    }
    if (needed == nb) {
      // Every band must run: with one lane the bands buy no overlap, so
      // run the layer whole (bit-identical, no per-band halo crop). Runs
      // without a stream always take this path, observed runs included.
      run_tail_layer(pl.layer_id, main_, observe);
      if (stream != nullptr) {
        for (std::size_t j = 0; j < nb; ++j) stream_mark_band(*stream, pi, j);
      }
      continue;
    }
    for (std::size_t j = 0; j < nb; ++j) run_band(pi, j, main_, stream);
  }
  run_rest(main_, stream, observe);
}

template <class Traits>
nn::TaskGraph& PatchRuntime<Traits>::pipeline_graph(int num_workers) const {
  auto it = pipeline_graphs_.find(num_workers);
  if (it != pipeline_graphs_.end()) return it->second;
  // Cost-weighted branch-chunk tasks per grid row -> tail row-band tasks
  // wired through the precomputed readiness structure -> one join task for
  // the non-banded rest of the tail.
  nn::TaskGraph graph;
  const int grid_rows = plan_.spec.grid_rows;
  const int grid_cols = plan_.spec.grid_cols;
  const int per_row = chunks_per_grid_row(plan_, num_workers);
  const std::span<const std::int64_t> costs(branch_costs_);
  std::vector<std::vector<int>> row_tasks(static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    const auto ranges = weighted_chunks(
        costs.subspan(static_cast<std::size_t>(r * grid_cols),
                      static_cast<std::size_t>(grid_cols)),
        per_row);
    for (const nn::IndexRange& range : ranges) {
      const std::int64_t b0 = r * grid_cols + range.begin;
      const std::int64_t b1 = r * grid_cols + range.end;
      row_tasks[static_cast<std::size_t>(r)].push_back(
          graph.add([this, b0, b1](int lane) {
            for (std::int64_t b = b0; b < b1; ++b) {
              run_branch(b, run_data_ + run_pplan_->slice_offset(lane),
                         run_pplan_->slice.slots,
                         *lanes_[static_cast<std::size_t>(lane)], run_stream_,
                         nullptr);
            }
          }));
    }
  }
  std::vector<std::vector<int>> band_tasks(pipeline_.size());
  for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
    const PipelinedTailLayer& pl = pipeline_[pi];
    band_tasks[pi].resize(pl.bands.size());
    for (std::size_t j = 0; j < pl.bands.size(); ++j) {
      const int task = graph.add([this, pi, j](int lane) {
        run_band(pi, j, *lanes_[static_cast<std::size_t>(lane)], run_stream_);
      });
      band_tasks[pi][j] = task;
      for (const int r : pl.grid_row_deps[j]) {
        for (const int t : row_tasks[static_cast<std::size_t>(r)]) {
          graph.depend(task, t);
        }
      }
      for (const auto& [qi, k] : pl.band_deps[j]) {
        graph.depend(task, band_tasks[static_cast<std::size_t>(qi)]
                                     [static_cast<std::size_t>(k)]);
      }
    }
  }
  // The join: everything the row bands could not cover (global pools, the
  // classifier head) runs once, after every branch and band retired.
  const int join_preds = graph.size();
  const int join = graph.add([this](int lane) {
    run_rest(*lanes_[static_cast<std::size_t>(lane)], run_stream_, nullptr);
  });
  for (int t = 0; t < join_preds; ++t) graph.depend(join, t);
  return pipeline_graphs_.emplace(num_workers, std::move(graph)).first->second;
}

template <class Traits>
auto PatchRuntime<Traits>::execute(const nn::Tensor& input,
                                   nn::WorkerPool* pool, StreamState* stream,
                                   const Observer* observe) const -> Tensor {
  const nn::Graph& g = graph();
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  const int w = pool == nullptr ? 1 : pool->num_workers();
  if (stream != nullptr) begin_stream_frame(*stream, w);
  // Stream frames bind the retained layout, pipelined runs the widened
  // slice/shared layout, sequential runs the unified single-arena plan.
  const nn::ParallelArenaPlan* pplan =
      stream != nullptr ? &streaming_plan(w)
                        : (w > 1 ? &pipelined_plan(w) : nullptr);
  const std::int64_t need =
      pplan != nullptr ? pplan->total_bytes() : aplan_.peak_bytes;
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      stream != nullptr
          ? bind_arena(need, stream->lease, stream->owned, stream->primed)
          : bind_arena(need, lease, arena_, false);
  nn::check_arena(arena, need, Traits::kElemBytes);

  // The input and every shared view (assembled map and all tail layers)
  // are bound before any branch runs — for the task graph, before
  // dispatch, so tasks only read and write through them.
  const std::span<const nn::ArenaSlot> slots(aplan_.slots);
  const auto steps = static_cast<std::size_t>(num_steps_);
  const std::int64_t shared_offset =
      pplan != nullptr ? pplan->shared_offset() : 0;
  std::int64_t shared_measured = 0;
  stage(input, arena.data() + shared_offset,
        pplan != nullptr ? std::span(pplan->shared.slots)
                         : slots.subspan(steps),
        shared_measured);
  measured_ = shared_offset + shared_measured;
  if (w > 1) {
    run_data_ = arena.data();
    run_pplan_ = pplan;
    run_stream_ = stream;
    for (int lane = 0; lane < w; ++lane) ready_lane(worker_lane(lane));
    pool->run_graph(pipeline_graph(w));
    run_stream_ = nullptr;
    for (int lane = 0; lane < w; ++lane) {
      measured_ = std::max(
          measured_, pplan->slice_offset(lane) +
                         lanes_[static_cast<std::size_t>(lane)]->measured);
    }
  } else {
    run_inline(arena.data(),
               pplan != nullptr ? std::span(pplan->slice.slots)
                                : slots.first(steps),
               stream, observe);
    measured_ = std::max(measured_, main_.measured);
  }
  if (stream != nullptr) {
    stream->primed = true;
    // Only the streaming layout keeps every tail slot alive to here.
    this->after_stream_frame(plan_.spec.split_layer, tail_memo_);
  }
  return tail_memo_[static_cast<std::size_t>(g.output())];
}

// --- streaming ---------------------------------------------------------------

template <class Traits>
void PatchRuntime<Traits>::begin_stream_frame(StreamState& state,
                                              int workers) const {
  QMCU_REQUIRE(workers >= 1, "streaming needs at least one lane");
  QMCU_REQUIRE(state.workers == 0 || state.workers == workers,
               "stream state is pinned to its first frame's worker count");
  state.workers = workers;
  state.branch_dirty.resize(plan_.branches.size(), 1);
  if (state.row_changed == nullptr) {
    state.row_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(plan_.spec.grid_rows));
    state.band_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(std::max(total_bands_, 1)));
  }
  // First frame: nothing retained yet, so every branch runs and every grid
  // row starts dirty — the arena's initial bytes are not a valid previous
  // frame, so a first-frame merge that happens to match them (all-zero
  // quant tiles over a fresh zeroed buffer) must not suppress the bands
  // downstream of it. Later frames start with every change flag clear.
  const char first = state.primed ? 0 : 1;
  if (first != 0) {
    std::fill(state.branch_dirty.begin(), state.branch_dirty.end(),
              std::uint8_t{1});
  }
  for (int r = 0; r < plan_.spec.grid_rows; ++r) {
    state.row_changed[static_cast<std::size_t>(r)].store(
        first, std::memory_order_relaxed);
  }
  for (int i = 0; i < total_bands_; ++i) {
    state.band_changed[static_cast<std::size_t>(i)].store(
        0, std::memory_order_relaxed);
  }
  state.any_changed.store(first, std::memory_order_relaxed);
  state.branches_run.store(0, std::memory_order_relaxed);
  state.bands_run.store(0, std::memory_order_relaxed);
}

template <class Traits>
bool PatchRuntime<Traits>::stream_band_needed(const StreamState& state,
                                              std::size_t pi,
                                              std::size_t j) const {
  const PipelinedTailLayer& pl = pipeline_[pi];
  for (const int r : pl.grid_row_deps[j]) {
    if (state.row_changed[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  for (const auto& [qi, k] : pl.band_deps[j]) {
    if (state
            .band_changed[static_cast<std::size_t>(
                band_offset_[static_cast<std::size_t>(qi)] + k)]
            .load(std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  return false;
}

template <class Traits>
void PatchRuntime<Traits>::stream_mark_band(StreamState& state, std::size_t pi,
                                            std::size_t j) const {
  state.bands_run.fetch_add(1, std::memory_order_relaxed);
  state.band_changed[static_cast<std::size_t>(band_offset_[pi]) + j]
      .store(1, std::memory_order_relaxed);
}

template class PatchRuntime<FloatPatchTraits>;
template class PatchRuntime<QuantPatchTraits>;

// --- the two models ----------------------------------------------------------

CompiledPatchModel::CompiledPatchModel(const nn::Graph& g, PatchPlan plan,
                                       nn::ops::KernelTier tier)
    : PatchRuntime(g, std::move(plan), tier, {}) {}

CompiledPatchQuantModel::CompiledPatchQuantModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs, nn::ops::KernelTier tier,
    std::shared_ptr<const nn::QuantizedParameters> params)
    : CompiledPatchQuantModel(g, std::move(plan), std::move(cfg),
                              std::move(branch_cfgs), std::move(params),
                              PrecompiledPatchParts{}, tier) {}

CompiledPatchQuantModel::CompiledPatchQuantModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs,
    std::shared_ptr<const nn::QuantizedParameters> params,
    PrecompiledPatchParts parts, nn::ops::KernelTier tier)
    : PatchRuntime(g, std::move(plan), tier, std::move(parts.pipeline),
                   std::move(cfg), std::move(branch_cfgs), std::move(params),
                   std::move(parts.kernels)) {
  if (branch_cfgs_.empty()) return;
  QMCU_REQUIRE(branch_cfgs_.size() == this->plan().branches.size(),
               "branch configs must cover every branch");
  for (std::size_t b = 0; b < branch_cfgs_.size(); ++b) {
    QMCU_REQUIRE(branch_cfgs_[b].per_step.size() ==
                     this->plan().branches[b].steps.size(),
                 "branch config must cover every step");
  }
  if (parts.branch_bias.empty()) {
    branch_bias_ = build_branch_bias(g, this->plan(), branch_cfgs_, *params_);
  } else {
    // Artifact-supplied biases (the graph may be topology-only, so the
    // float-bias rescale that build_branch_bias runs is not available).
    QMCU_REQUIRE(parts.branch_bias.size() == this->plan().branches.size(),
                 "precomputed branch bias must cover every branch");
    branch_bias_ = std::move(parts.branch_bias);
  }
}

}  // namespace qmcu::patch
