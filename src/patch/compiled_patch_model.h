// compiled_patch_model.h — compile-once / run-many patch-based inference
// against one static tensor arena, sequentially or across a worker pool.
//
// Patch-based inference is one dataflow at every precision: each branch
// computes its patch region step by step, merges its tile into the
// reassembled cut-layer map, and the tail then runs once over that map.
// patch::PatchRuntime<Traits> owns that dataflow; the precision traits
// (FloatPatchTraits, QuantPatchTraits) supply only what differs — the
// tensor type and slot binding, input staging, the per-step kernel calls
// and their bias/params/pool tables, the whole-layer call, lane prepacking
// and the streaming stats hook. CompiledPatchModel and
// CompiledPatchQuantModel are the two instantiations. It is the only patch
// dataflow: serving, streaming and offline planning (VDQS profiling through
// the observed run) all execute it.
//
// Compilation plans, once:
//
//   * one arena slot per branch *step index*, sized to the largest region
//     any branch computes at that step (branches share the slot layout —
//     they have identical step structure, only their region extents
//     differ);
//   * one slot for the reassembled cut-layer feature map, live from the
//     first branch through its last tail consumer;
//   * one slot per tail layer, placed over layer-based lifetimes;
//   * (quantized) one slot for the quantized full input, live across the
//     whole branch phase.
//
// Sequential run(): all slots come from one nn::ArenaPlanner pass over a
// unified timeline (branch steps first, tail steps after), so branch
// buffers, the shared accumulation buffer and tail feature maps pack into a
// single arena the way the deployed runtime lays out SRAM.
//
// Parallel run(input, pool): a dependency-driven task graph over a
// nn::WorkerPool. Branches are spatially independent — their only
// interaction is the merge into *disjoint* tiles of the assembled map — so
// they become independent tasks (cost-weighted: cheap border branches
// coalesce into one task, see patch::weighted_chunks). Each early tail
// layer is split into row-band tasks whose input-row intervals come from
// patch::receptive_field; a band depends only on the branch tasks (and
// upstream bands) that produce its rows, so the tail starts on spare
// workers while interior branches are still running. Tail layers that need
// the whole map (GlobalAvgPool, FullyConnected, Softmax) and everything
// after them run as one final task behind the graph's join.
//
// The parallel arena uses the nn::ParallelArenaPlan layout: one private
// branch-slot slice per worker followed by one shared region (assembled
// map, tail slots, quantized input), planned by
// ArenaPlanner::plan_pipelined so that nothing live during the overlap
// window shares bytes. Each worker lane owns its KernelBackend (scratch +
// panel cache), crop arena and step views, handed to its thread at
// dispatch via the backend's thread-affinity guard. Outputs are
// bit-identical to the sequential path for every worker count and every
// readiness order; a null/1-worker pool takes the sequential path exactly.
//
// run_streaming() reuses the same graph over a retained arena (see
// StreamState): clean branches and tail bands downstream of unchanged rows
// are skipped.
//
// The observed run(input, observe) is the sequential path with a callback
// after every branch step and every tail layer, while that feature map's
// bytes are still live — how planning profiles every map patch inference
// computes in one pass.
//
// Halo crop temporaries are scratch (a grow-only pool reused across steps),
// not feature maps, and are accounted via scratch_bytes().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/compiled_model.h"
#include "nn/graph.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/worker_pool.h"
#include "nn/tensor.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Per-step QuantParams for one branch, parallel to PatchBranch::steps.
struct BranchQuantConfig {
  std::vector<nn::QuantParams> per_step;
};

// One row-banded tail layer of the pipelined dataflow graph: the layer's
// output rows are split into `bands`; band j's tasks depend on whatever
// produces its input rows (branch tasks for the first tail layer, upstream
// bands after that). Computed once at compile time (build_pipelined_tail).
struct PipelinedTailLayer {
  int layer_id = -1;
  std::vector<Interval> bands;  // output row intervals, in order
  // Per band: grid rows whose branches must have merged (reads of the
  // assembled map), and (layer index into the prefix, band index) pairs
  // for upstream banded layers.
  std::vector<std::vector<int>> grid_row_deps;
  std::vector<std::vector<std::pair<int, int>>> band_deps;
};

// Builds the row-banded pipeline prefix for the tail of `plan`: the
// maximal run of tail layers after the cut that are row-splittable
// (windowed, pooling, element-wise or concat ops), each split into
// `bands_per_layer` row bands (clamped to the layer's height), with
// dependencies resolved through patch::receptive_field. Used by
// PatchRuntime and the patch-artifact writer.
std::vector<PipelinedTailLayer> build_pipelined_tail(
    const nn::Graph& g, const PatchPlan& plan, int bands_per_layer);

// Mixed mode: per-branch per-step int32 biases rescaled to the branch's
// actual input scales (empty vectors for non-MAC steps). The branch's step
// parameters set the real input scale of each MAC step, so biases must be
// rescaled per branch (the shared QuantizedParameters bias table is built
// against the deployment config). Shared by the compiled model and the
// patch-artifact writer.
std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params);

// Extracts region `want` (unclamped) of a feature map with full extent
// `full` from `have`, which holds region `avail` of it, into `out` (shape
// `want` x channels). Out-of-bounds positions carry real 0 — zero for float,
// the zero point for quantized maps (`out` must carry `have`'s params) —
// i.e. genuine zero padding. Every in-bounds element of `want` must lie
// inside `avail`.
void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out);
void crop_from_region_q_into(const nn::QTensor& have, const Region& avail,
                             const Region& want, const nn::TensorShape& full,
                             nn::QTensor& out);

// Construction-time products precomputed by the plan-artifact loader:
// mixed-mode branch biases, the row-banded pipeline structure, and the
// panel/LUT bundle every lane backend adopts (see nn::PrecompiledBundle).
// Empty members fall back to in-constructor computation.
struct PrecompiledPatchParts {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  std::vector<PipelinedTailLayer> pipeline;
  std::shared_ptr<const nn::PrecompiledBundle> kernels;
};

// --- streaming -------------------------------------------------------------

// Per-stream persistent state for run_streaming: the arena whose retained
// bytes (assembled map tiles, tail feature maps) carry clean branches' work
// from frame to frame, plus the per-frame dirty mask and change-propagation
// flags. One StreamState per stream; the model is stateless across streams
// and several streams may share one model (serving: one state per lane).
//
// run_streaming binds the *streaming* arena layout — every shared slot's
// lifetime widened to the whole timeline, so no tail slot can recycle bytes
// another retained slot owns across frames (the sequential and pipelined
// layouts overlay dead slots, which is exactly what retention forbids).
// The worker count is pinned by the first frame: the slice layout, and
// therefore every retained offset, depends on it.
struct StreamState {
  StreamState() = default;
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  // Caller-set before each frame: branch_dirty[b] != 0 schedules branch b
  // (see patch::dirty_branches). Ignored on the first frame — everything
  // runs until the state is primed. A recomputed branch whose merged tile
  // matches the retained bytes still leaves its grid row clean.
  std::vector<std::uint8_t> branch_dirty;

  // Stats for the frame just run (reset at each run_streaming entry).
  [[nodiscard]] std::int64_t frame_branches_run() const {
    return branches_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t frame_bands_run() const {
    return bands_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool frame_changed_output() const {
    return any_changed.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] bool is_primed() const { return primed; }
  [[nodiscard]] int pinned_workers() const { return workers; }

  // Forget everything (scene cut / rebind to another model): the next
  // frame runs in full and may re-pin a new worker count.
  void reset() {
    branch_dirty.clear();
    lease.release();
    owned.clear();
    row_changed.reset();
    band_changed.reset();
    workers = 0;
    primed = false;
  }

  // -- managed by run_streaming ----------------------------------------
  nn::ArenaSlab::Lease lease;       // slab-backed retained arena
  std::vector<std::uint8_t> owned;  // fallback when no slab is attached
  int workers = 0;                  // pinned by the first frame
  bool primed = false;              // first frame completed
  // Per-frame change propagation: which grid rows merged new bytes, which
  // tail bands recomputed (relaxed atomics — the task graph's dependency
  // edges order every read after the writes it needs).
  std::unique_ptr<std::atomic<char>[]> row_changed;
  std::unique_ptr<std::atomic<char>[]> band_changed;  // flat, per band
  std::atomic<char> any_changed{0};
  std::atomic<std::int64_t> branches_run{0};
  std::atomic<std::int64_t> bands_run{0};
};

// --- precision traits ------------------------------------------------------
//
// A traits class is PatchRuntime's base: it holds the precision-specific
// state and supplies the hooks the runtime calls. Hooks taking a branch
// index treat branch < 0 as "a tail layer".

// Float tensors carry no quantization parameters.
struct Unquantized {};

class FloatPatchTraits {
 public:
  using Tensor = nn::Tensor;
  using Params = Unquantized;

 protected:
  static constexpr std::int64_t kElemBytes = sizeof(float);
  static constexpr bool kStagesInput = false;  // reads the caller's tensor

  explicit FloatPatchTraits(const nn::Graph& g) : graph_(&g) {}

  Params branch_params(int, int, int) const { return {}; }
  Params layer_params(int) const { return {}; }
  const Tensor& stage_input(const nn::Tensor& input, std::uint8_t*,
                            const nn::ArenaSlot*, std::int64_t&) const {
    return input;
  }
  void input_tile(nn::ops::KernelBackend& backend,
                  nn::ops::ScratchArena& crops, const Tensor& input,
                  const Region& region, Tensor& out) const;
  void conv(nn::ops::KernelBackend& backend, const Tensor& in,
            const nn::Layer& local, int layer_id, int branch, int step,
            Tensor& out) const;
  void pool(const Tensor& in, const Region& avail, const nn::Layer& l,
            const Region& want, const nn::TensorShape& full,
            Tensor& out) const;
  void run_layer(int id, std::vector<Tensor>& memo,
                 nn::ops::KernelBackend& backend) const;
  // The float conv path packs its panel into scratch per call: nothing to
  // adopt or prepack, and no stats hook.
  void adopt_kernels(nn::ops::KernelBackend&) const {}
  void prepack_lane(nn::ops::KernelBackend&, const PatchPlan&) const {}
  void after_stream_frame(int, std::span<const Tensor>) const {}

  const nn::Graph* graph_;
};

class QuantPatchTraits {
 public:
  using Tensor = nn::QTensor;
  using Params = nn::QuantParams;

  // Opt-in activation statistics for streaming frames: called once per
  // completed run_streaming frame on the calling thread, for the assembled
  // cut layer and every tail layer, with the layer's output view (drift
  // tracking — see nn::streaming::ActivationStatsTracker). Only the
  // streaming layout keeps every tail slot alive to the end of a run, so
  // run() and run(input, pool) never call it: their tail slots overlay
  // one another. Null clears it.
  void set_stats_hook(
      std::function<void(int, const nn::QTensor&)> hook) const {
    stats_hook_ = std::move(hook);
  }
  [[nodiscard]] const std::shared_ptr<const nn::QuantizedParameters>&
  shared_parameters() const {
    return params_;
  }

 protected:
  static constexpr std::int64_t kElemBytes = 1;
  static constexpr bool kStagesInput = true;  // quantized into its own slot

  QuantPatchTraits(const nn::Graph& g, nn::ActivationQuantConfig cfg,
                   std::vector<BranchQuantConfig> branch_cfgs,
                   std::shared_ptr<const nn::QuantizedParameters> params,
                   std::shared_ptr<const nn::PrecompiledBundle> bundle);

  // Mixed mode: the branch's per-step override; uniform mode: the
  // pool-propagated effective params of the step's layer.
  const Params& branch_params(int branch, int step, int layer_id) const;
  const Params& layer_params(int id) const {
    return effective_[static_cast<std::size_t>(id)];
  }
  const Tensor& stage_input(const nn::Tensor& input, std::uint8_t* base,
                            const nn::ArenaSlot* slot,
                            std::int64_t& measured) const;
  void input_tile(nn::ops::KernelBackend& backend,
                  nn::ops::ScratchArena& crops, const Tensor& input,
                  const Region& region, Tensor& out) const;
  void conv(nn::ops::KernelBackend& backend, const Tensor& in,
            const nn::Layer& local, int layer_id, int branch, int step,
            Tensor& out) const;
  void pool(const Tensor& in, const Region& avail, const nn::Layer& l,
            const Region& want, const nn::TensorShape& full,
            Tensor& out) const;
  void run_layer(int id, std::vector<Tensor>& memo,
                 nn::ops::KernelBackend& backend) const;
  void adopt_kernels(nn::ops::KernelBackend& backend) const {
    if (bundle_ != nullptr) bundle_->apply(backend);
  }
  void prepack_lane(nn::ops::KernelBackend& backend,
                    const PatchPlan& plan) const;
  void after_stream_frame(int first_layer, std::span<const Tensor> memo) const;

  const nn::Graph* graph_;
  nn::ActivationQuantConfig cfg_;
  std::vector<nn::QuantParams> effective_;
  std::vector<BranchQuantConfig> branch_cfgs_;  // empty = uniform mode
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias_;
  std::shared_ptr<const nn::QuantizedParameters> params_;
  // Artifact bundle adopted by every backend (keeps the panel views
  // registered with them alive).
  std::shared_ptr<const nn::PrecompiledBundle> bundle_;
  // AvgPool reciprocal tables keyed by window size. Filled at construction
  // for every window the graph contains, then read-only — several workers
  // share them concurrently during parallel runs.
  std::unordered_map<int, nn::ops::AvgPoolMultipliers> pool_tables_;
  mutable std::function<void(int, const nn::QTensor&)> stats_hook_;
  mutable nn::QTensor qinput_;  // the staged quantized input view
};

// --- the runtime -------------------------------------------------------------

template <class Traits>
class PatchRuntime : public Traits {
 public:
  using Tensor = typename Traits::Tensor;
  // Called as observe(branch, step, map) after every branch step, on the
  // step's out_region view, and as observe(-1, layer_id, map) after every
  // tail layer (branch < 0 is the tail). The view is valid only during the
  // call: the arena reuses its bytes later in the run.
  using Observer = std::function<void(int, int, const Tensor&)>;

  [[nodiscard]] Tensor run(const nn::Tensor& input) const {
    return execute(input, nullptr, nullptr, nullptr);
  }
  // The sequential run with `observe` called on the calling thread at
  // compute time (see Observer) — every feature map patch inference
  // computes, in one pass. Bit-identical to run().
  [[nodiscard]] Tensor run(const nn::Tensor& input,
                           const Observer& observe) const {
    return execute(input, nullptr, nullptr, observe ? &observe : nullptr);
  }
  // Pipelined dataflow run: branch tasks and tail row-band tasks scheduled
  // as one dependency graph over `pool` (see the header comment).
  // Bit-identical to run() for every worker count and readiness order. A
  // null pool or a 1-worker pool takes the sequential path exactly.
  [[nodiscard]] Tensor run(const nn::Tensor& input,
                           nn::WorkerPool* pool) const {
    return execute(input, pool, nullptr, nullptr);
  }
  // Temporal-reuse run over `state` (see StreamState): only branches with
  // state.branch_dirty set are recomputed — clean branches contribute
  // their retained assembled-map tiles for free — and tail row-bands whose
  // upstream grid rows merged no new bytes are skipped, as is the
  // non-banded rest of the tail when nothing changed at all. Bit-identical
  // to run() on the same frame for every worker count, provided the dirty
  // mask is conservative (patch::dirty_branches exact mode; quantized
  // models quantize deterministically per element, so the mask computed on
  // float frames holds). A null pool or 1-worker pool streams sequentially
  // over the same retained layout.
  [[nodiscard]] Tensor run_streaming(const nn::Tensor& input,
                                     nn::WorkerPool* pool,
                                     StreamState& state) const {
    return execute(input, pool, &state, nullptr);
  }

  [[nodiscard]] const nn::ArenaPlan& arena_plan() const { return aplan_; }
  [[nodiscard]] std::int64_t arena_bytes() const { return aplan_.peak_bytes; }
  // The widened-lifetime slice/shared layout the pipelined graph binds for
  // `num_workers` lanes (cached per worker count).
  [[nodiscard]] const nn::ParallelArenaPlan& pipelined_plan(
      int num_workers) const;
  // The retained streaming layout: shared lifetimes widened to the whole
  // timeline so no slot's bytes are ever overlaid between frames.
  [[nodiscard]] const nn::ParallelArenaPlan& streaming_plan(
      int num_workers) const;
  // The row-banded tail prefix of the pipelined graph (compile-time).
  [[nodiscard]] std::span<const PipelinedTailLayer> pipelined_tail() const {
    return pipeline_;
  }
  // How many pipelined TaskGraph skeletons are cached (one per distinct
  // worker count seen) — repeated runs at the same width must not grow it.
  [[nodiscard]] std::size_t cached_pipeline_graphs() const {
    return pipeline_graphs_.size();
  }
  // Serving integration: when set, run arenas are leased from `slab` for
  // the duration of each run instead of a model-owned buffer, so many
  // models can share max-sized slices instead of the per-model sum.
  void set_arena_source(std::shared_ptr<nn::ArenaSlab> slab) {
    arena_source_ = std::move(slab);
  }
  // Test-only: called after each branch finishes (merge included), before
  // its completion is published to dependents — tests stall chosen
  // branches here to force adversarial readiness orders.
  void set_branch_completion_hook(std::function<void(int)> hook) const {
    branch_hook_ = std::move(hook);
  }
  [[nodiscard]] std::int64_t measured_high_water() const { return measured_; }
  // Crop-temporary + backend scratch held after the last run, including
  // every worker lane's share.
  [[nodiscard]] std::int64_t scratch_bytes() const;
  [[nodiscard]] const PatchPlan& plan() const { return plan_; }
  [[nodiscard]] const nn::Graph& graph() const { return *this->graph_; }

 protected:
  template <class... TraitArgs>
  PatchRuntime(const nn::Graph& g, PatchPlan plan, nn::ops::KernelTier tier,
               std::vector<PipelinedTailLayer> pipeline,
               TraitArgs&&... traits)
      : Traits(g, std::forward<TraitArgs>(traits)...),
        plan_(std::move(plan)),
        main_(tier) {
    compile(std::move(pipeline));
  }

 private:
  // One execution lane's private state. The backend (scratch + panel
  // cache) and crop arena are thread-affine; each run rebinds them to
  // whichever thread runs the lane.
  struct Lane {
    explicit Lane(nn::ops::KernelTier tier) : backend(tier) {}
    nn::ops::KernelBackend backend;
    nn::ops::ScratchArena crops;
    std::vector<Tensor> step_views;  // per step, rebound per branch
    std::int64_t measured = 0;  // furthest byte written inside the slice
  };

  void compile(std::vector<PipelinedTailLayer> pipeline);
  Lane& worker_lane(int lane) const;
  void ready_lane(Lane& lane) const;
  // The run arena: leased from the slab when one is attached, else the
  // grow-only `owned` buffer. `retained` (a primed stream) forbids growth.
  std::span<std::uint8_t> bind_arena(std::int64_t need,
                                     nn::ArenaSlab::Lease& lease,
                                     std::vector<std::uint8_t>& owned,
                                     bool retained) const;
  // Every entry point: validate, pick and bind the layout, run the branch
  // phase and the tail sequentially or as the task graph, then (streaming
  // frames) the stats hook. `stream` selects the retained streaming
  // layout; `observe` (sequential runs only) sees every map as computed.
  Tensor execute(const nn::Tensor& input, nn::WorkerPool* pool,
                 StreamState* stream, const Observer* observe) const;
  // Stages the input and binds the assembled map + every tail layer's view
  // over `shared` (tail slots first, then the assembled map and the
  // quantized input) at `base`.
  void stage(const nn::Tensor& input, std::uint8_t* base,
             std::span<const nn::ArenaSlot> shared,
             std::int64_t& measured) const;
  // Runs one branch's steps against the slot layout `slots` (indices equal
  // step indices) at `base`, then merges the final tile into the assembled
  // map. With `merge_changed` set the merge compares before writing and
  // reports whether any assembled byte changed; with `observe` set each
  // step's view is reported as soon as it is computed.
  void exec_branch(std::int64_t b, std::uint8_t* base,
                   std::span<const nn::ArenaSlot> slots, Lane& lane,
                   bool* merge_changed, const Observer* observe) const;
  // exec_branch plus the streaming dirty/changed bookkeeping and the hook.
  void run_branch(std::int64_t b, std::uint8_t* base,
                  std::span<const nn::ArenaSlot> slots, Lane& lane,
                  StreamState* stream, const Observer* observe) const;
  // Computes output rows `rows` of banded tail layer `layer_id` from the
  // pre-bound tail views.
  void exec_tail_band(int layer_id, const Interval& rows, Lane& lane) const;
  // Band j of banded layer pi, unless a stream frame can skip it.
  void run_band(std::size_t pi, std::size_t j, Lane& lane,
                StreamState* stream) const;
  // The non-banded rest of the tail (skipped by unchanged stream frames).
  void run_rest(Lane& lane, const StreamState* stream,
                const Observer* observe) const;
  // Runs tail layer `id` whole on `lane` and reports it to `observe`.
  void run_tail_layer(int id, Lane& lane, const Observer* observe) const;
  // The whole run on the calling thread's lane (sequential run, observed
  // run and single-lane streaming).
  void run_inline(std::uint8_t* base, std::span<const nn::ArenaSlot> slice,
                  StreamState* stream, const Observer* observe) const;
  // The cached dataflow graph for `num_workers` lanes. Its task bodies
  // capture only `this`: per-run state (arena base, plan, stream) is
  // staged in the run_* members before dispatch, so the graph — chunking,
  // band wiring, join — is built once per worker count, not per run.
  nn::TaskGraph& pipeline_graph(int num_workers) const;
  // Streaming internals: size `state` for this plan, pin its worker count
  // and reset the frame's change flags; the band-skip predicate and the
  // change-propagation marks.
  void begin_stream_frame(StreamState& state, int workers) const;
  bool stream_band_needed(const StreamState& state, std::size_t pi,
                          std::size_t j) const;
  void stream_mark_band(StreamState& state, std::size_t pi,
                        std::size_t j) const;

  PatchPlan plan_;
  int num_steps_ = 0;       // steps per branch (identical across branches)
  int assembled_slot_ = 0;  // request index of the reassembled cut layer
  int input_slot_ = -1;     // request index of the staged input, if any
  nn::ArenaPlan aplan_;
  // Request lists of the parallel layouts: branch-step slots (per-worker
  // slice) and tail + assembled (+ input) slots (shared region).
  std::vector<nn::ArenaRequest> slice_requests_;
  std::vector<nn::ArenaRequest> shared_requests_;
  // Pipelined dataflow structure: banded tail prefix, branch pricing for
  // cost-weighted task chunking, and the timeline step of the last banded
  // layer (the lifetime-widening horizon of plan_pipelined).
  std::vector<PipelinedTailLayer> pipeline_;
  std::vector<std::int64_t> branch_costs_;
  int pipeline_horizon_ = 0;
  std::vector<int> band_offset_;  // flat band index base per banded layer
  int total_bands_ = 0;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> pipelined_pplans_;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> streaming_pplans_;
  mutable std::unordered_map<int, nn::TaskGraph> pipeline_graphs_;
  // Per-run state read by the cached graph's tasks; staged before dispatch
  // (the dispatch barrier publishes it to every lane). run_stream_ is
  // non-null only while a streaming frame is in flight.
  mutable const Tensor* run_input_ = nullptr;
  mutable std::uint8_t* run_data_ = nullptr;
  mutable const nn::ParallelArenaPlan* run_pplan_ = nullptr;
  mutable StreamState* run_stream_ = nullptr;
  std::shared_ptr<nn::ArenaSlab> arena_source_;
  mutable std::function<void(int)> branch_hook_;
  mutable Lane main_;  // the calling thread's lane
  mutable std::vector<std::unique_ptr<Lane>> lanes_;  // pool worker lanes
  mutable std::vector<std::uint8_t> arena_;
  mutable std::vector<Tensor> tail_memo_;  // per layer id (tail phase)
  mutable std::int64_t measured_ = 0;
};

extern template class PatchRuntime<FloatPatchTraits>;
extern template class PatchRuntime<QuantPatchTraits>;

// --- the two models ----------------------------------------------------------

class CompiledPatchModel : public PatchRuntime<FloatPatchTraits> {
 public:
  CompiledPatchModel(const nn::Graph& g, PatchPlan plan,
                     nn::ops::KernelTier tier = nn::ops::KernelTier::Simd);
};

class CompiledPatchQuantModel : public PatchRuntime<QuantPatchTraits> {
 public:
  // Uniform mode: branch steps inherit the per-layer params of `cfg`;
  // mixed mode: `branch_cfgs[b].per_step[s]` overrides branch b's step s.
  // Prebuilt shared parameters (QuantizedParameters::build_shared) skip the
  // per-model weight conversion.
  CompiledPatchQuantModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs = {},
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd,
      std::shared_ptr<const nn::QuantizedParameters> params = {});
  // Artifact path: precomputed branch biases / pipeline structure / kernel
  // bundle skip the corresponding construction-time work (the bundle's
  // panels are adopted by the model backend and every worker lane).
  CompiledPatchQuantModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs,
      std::shared_ptr<const nn::QuantizedParameters> params,
      PrecompiledPatchParts parts,
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd);
};

}  // namespace qmcu::patch
