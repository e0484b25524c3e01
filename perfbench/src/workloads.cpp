// workloads.cpp — serve, stream and deploy over the paper's headline
// deployment, with an output oracle on every operation.
//
// The subject is MobileNetV2 at bench::nano_imagenet_scale() (w0.35,
// 144 px), planned by core::build_quantmcu_plan with the default
// QuantMcuConfig for the Arduino Nano 33 BLE Sense and served from a QMCP
// artifact. Every input is generated from the seed before timing starts;
// the library only sees the generated tensors.
//
// Set-up work the user does not pay per run — baking the serving artifact,
// the reference outputs and the seeded-input self-check — runs in a forked
// child, so the measured process's peak RSS is that of the workload alone.
#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/quantmcu.h"
#include "core/vdpc.h"
#include "nn/compiled_model.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "nn/serving/serving_frontend.h"
#include "nn/streaming/streaming_session.h"
#include "oracle.h"
#include "patch/compiled_patch_model.h"
#include "patch/patch_artifact.h"
#include "patch/patch_cost.h"
#include "patch/streaming_diff.h"
#include "quant/calibration.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace qmcu;
namespace fs = std::filesystem;

// ---- fixed workload shape ---------------------------------------------------
// Rates are absolute, not derived from a capacity measured in the same run:
// a derived rate would hide a gain. They were sized on a 4-core host (see
// NOTES.md): serve's open-loop rate is about a quarter of the 2-lane
// capacity (~250 req/s at 7-8 ms per 2-worker run), and the stream rate
// keeps each lane busy with changed frames about a fifth of the time.
// Heavier open-loop loads let queueing amplify the host's own speed swings
// into latency spreads wider than the metrics' bounds. Capacity is measured
// separately, in closed loops that keep every lane busy.
constexpr int kLanes = 2;
constexpr int kWorkersPerLane = 2;
constexpr double kLimitMs = 50.0;  // per-operation latency limit
constexpr int kCalibImages = 2;
constexpr int kServeImages = 32;
constexpr int kProbeImages = 2;
constexpr int kStreams = 2;
constexpr int kStreamPositions = 48;  // distinct object positions per stream
constexpr double kObjectArea = 0.30;
constexpr int kSetupReps = 15;
constexpr int kReferenceSample = 3;  // Reference-tier frames per stream
constexpr double kProbeSeconds = 4.0;  // other workloads in a traced run
// The open-loop and closed-loop phases alternate in this many segments
// each, so a transient host slowdown lands in both instead of taking over
// one.
constexpr int kSegments = 3;
constexpr double kOpenShare = 0.6;  // of the run; the rest is closed loop

constexpr double kServeRate = 60.0;  // requests/s
constexpr int kServeDepth = 2 * kLanes;  // closed loop: requests in flight
constexpr double kStreamFps = 50.0;  // frames/s per stream
constexpr int kStreamDepth = 3;  // closed loop: frames in flight per stream

enum Status { kPending, kOk, kMismatch, kRejected, kExpired, kFailed };

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

nn::Graph make_subject() {
  return models::make_mobilenet_v2(bench::nano_imagenet_scale());
}

mcu::Device subject_device() { return mcu::arduino_nano_33_ble_sense(); }

// ---- seeded inputs ----------------------------------------------------------

struct Inputs {
  std::vector<nn::Tensor> calib;    // calibration batch of the served model
  std::vector<nn::Tensor> deploy_calib;  // calibration batch deploy plans on
  std::vector<nn::Tensor> images;   // serve request images
  std::vector<nn::Tensor> probes;   // deploy first-inference images
  std::vector<std::vector<nn::Tensor>> streams;  // distinct camera frames
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  nn::Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
  return rng.next_u64();
}

// The camera generator of bench/streaming.cpp at the subject's resolution:
// a static background and a rigid textured object covering ~30 % of the
// frame, moving up to 4 px per step. Frame p is the object at its p-th
// position.
std::vector<nn::Tensor> camera_frames(const nn::Tensor& background,
                                      std::uint64_t seed) {
  const nn::TensorShape s = background.shape();
  const int side = static_cast<int>(std::sqrt(kObjectArea * s.h * s.w) + 0.5);
  nn::Rng rng(seed);
  int y0 = (s.h - side) / 2;
  int x0 = (s.w - side) / 2;
  std::vector<nn::Tensor> frames;
  for (int p = 0; p < kStreamPositions; ++p) {
    if (p > 0) {
      const int step = 4;
      y0 = std::clamp(y0 + static_cast<int>(rng.uniform(-step, step + 1)), 0,
                      s.h - side);
      x0 = std::clamp(x0 + static_cast<int>(rng.uniform(-step, step + 1)), 0,
                      s.w - side);
    }
    nn::Tensor frame = background;
    for (int y = y0; y < y0 + side; ++y) {
      for (int x = x0; x < x0 + side; ++x) {
        for (int c = 0; c < s.c; ++c) {
          frame.at(y, x, c) = static_cast<float>(rng.normal(0.0, 1.0));
        }
      }
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

// Frame c of a stream: frame 0 primes it; odd frames move the object one
// position along a ping-pong path over the distinct frames, even frames
// repeat the previous frame exactly (object motion at half the frame rate).
int frame_position(std::int64_t c) {
  const std::int64_t j = (c + 1) / 2;
  const std::int64_t period = 2 * (kStreamPositions - 1);
  const std::int64_t m = j % period;
  return static_cast<int>(m < kStreamPositions ? m : period - m);
}

bool is_hold(std::int64_t c) { return c > 0 && c % 2 == 0; }

Inputs make_inputs(const std::string& workload, bool all,
                   std::uint64_t seed) {
  data::DataConfig dc;
  dc.kind = data::DatasetKind::ImageNetLike;
  dc.resolution = bench::nano_imagenet_scale().resolution;
  dc.seed = mix(seed, 1);
  const data::SyntheticDataset ds(dc);
  Inputs in;
  // The served deployment is the same for every seed: calibrated on the
  // dataset's default images. A plan searched from seeded images changes
  // its bit-widths with the seed, and with them the served model's speed
  // (capacity moved by a third between two seeds). deploy plans from
  // seeded calibration images: planning from data is what it measures.
  if (all || workload != "deploy") {
    data::DataConfig subject = dc;
    subject.seed = data::DataConfig{}.seed;
    in.calib = data::SyntheticDataset(subject).batch(0, kCalibImages);
  }
  if (all || workload == "deploy") {
    in.deploy_calib = ds.batch(0, kCalibImages);
  }
  if (all || workload == "serve") in.images = ds.batch(10, kServeImages);
  if (all || workload == "deploy") in.probes = ds.batch(60, kProbeImages);
  if (all || workload == "stream") {
    for (int s = 0; s < kStreams; ++s) {
      in.streams.push_back(camera_frames(ds.image(80 + s), mix(seed, 10 + s)));
    }
  }
  return in;
}

// Exponential inter-arrival offsets (ns from the phase start) at `rate`.
std::vector<std::int64_t> poisson_offsets(double rate, double seconds,
                                          std::uint64_t seed) {
  nn::Rng rng(seed);
  std::vector<std::int64_t> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

std::uint64_t digest(const Inputs& in, std::uint64_t seed) {
  std::uint64_t h = fnv1a(nullptr, 0);
  const auto add = [&h](const nn::Tensor& t) {
    h = fnv1a(t.data().data(), t.data().size_bytes(), h);
  };
  for (const auto& t : in.calib) add(t);
  for (const auto& t : in.deploy_calib) add(t);
  for (const auto& t : in.images) add(t);
  for (const auto& t : in.probes) add(t);
  for (const auto& s : in.streams) {
    for (const auto& t : s) add(t);
  }
  const std::vector<std::int64_t> sched =
      poisson_offsets(kServeRate, 1.0, mix(seed, 100));
  return fnv1a(sched.data(), sched.size() * sizeof(std::int64_t), h);
}

// ---- the deployment ---------------------------------------------------------

struct Products {
  core::QuantMcuPlan plan;
  std::vector<quant::LayerRange> ranges;
  nn::ActivationQuantConfig deploy_cfg;
  std::vector<patch::BranchQuantConfig> branch_cfgs;
};

bool same_plan(const core::QuantMcuPlan& a, const core::QuantMcuPlan& b) {
  if (a.patch_plan.spec.split_layer != b.patch_plan.spec.split_layer ||
      a.patch_plan.spec.grid_rows != b.patch_plan.spec.grid_rows ||
      a.patch_plan.spec.grid_cols != b.patch_plan.spec.grid_cols ||
      a.tail_bits != b.tail_bits ||
      a.mixed_bits.size() != b.mixed_bits.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.mixed_bits.size(); ++i) {
    if (a.mixed_bits[i].bits != b.mixed_bits[i].bits) return false;
  }
  return true;
}

// Counts the plan implies, independent of the host: the paper's BitOPs,
// MACs per inference (halo included), and how much runs below 8 bits.
struct PlanFacts {
  double bitops_m = 0.0;
  double macs = 0.0;
  double sub8_mac_frac = 0.0;
  double redundant_mac_frac = 0.0;
  double sub8_fm_frac = 0.0;
  double repair_rounds = 0.0;
  double calib_outlier_frac = 0.0;
  double search_ms = 0.0;
  double arena_kib = 0.0;
  double artifact_bytes = 0.0;
};

PlanFacts plan_facts(const nn::Graph& g, const core::QuantMcuPlan& plan) {
  const patch::PatchPlan& pp = plan.patch_plan;
  const int split = pp.spec.split_layer;
  PlanFacts f;
  f.bitops_m = static_cast<double>(
                   patch::evaluate_patch_cost(g, pp, plan.mixed_bits,
                                              plan.tail_bits,
                                              mcu::CostModel(subject_device()))
                       .bitops) /
               1e6;
  double macs = 0.0;
  double sub8 = 0.0;
  double fms = 0.0;
  double sub8_fms = 0.0;
  for (std::size_t b = 0; b < pp.branches.size(); ++b) {
    const patch::PatchBranch& br = pp.branches[b];
    const std::vector<int>& bits = plan.mixed_bits[b].bits;
    for (std::size_t s = 0; s < br.steps.size(); ++s) {
      fms += 1.0;
      sub8_fms += bits[s] < 8 ? 1.0 : 0.0;
      const patch::BranchStep& step = br.steps[s];
      if (step.macs == 0) continue;
      const int p = br.step_of(g.layer(step.layer_id).inputs[0]);
      const int a_bits = p >= 0 ? bits[static_cast<std::size_t>(p)] : 8;
      macs += static_cast<double>(step.macs);
      if (a_bits < 8) sub8 += static_cast<double>(step.macs);
    }
  }
  for (int id = split + 1; id < g.size(); ++id) {
    fms += 1.0;
    sub8_fms += plan.tail_bits[static_cast<std::size_t>(id)] < 8 ? 1.0 : 0.0;
    if (!nn::is_mac_op(g.layer(id).kind)) continue;
    const int in = g.layer(id).inputs[0];
    const int a_bits =
        in == split ? 8 : plan.tail_bits[static_cast<std::size_t>(in)];
    macs += static_cast<double>(g.macs(id));
    if (a_bits < 8) sub8 += static_cast<double>(g.macs(id));
  }
  f.macs = macs;
  f.sub8_mac_frac = macs > 0 ? sub8 / macs : 0.0;
  f.redundant_mac_frac = static_cast<double>(pp.redundant_macs()) /
                         static_cast<double>(g.total_macs());
  f.sub8_fm_frac = fms > 0 ? sub8_fms / fms : 0.0;
  for (const core::VdqsResult& r : plan.searches) {
    f.repair_rounds += r.repair_rounds;
  }
  f.calib_outlier_frac = plan.calib_outlier_fraction;
  f.search_ms = plan.search_seconds * 1e3;
  return f;
}

// The paper's offline path up to the configs, untimed.
Products plan_products(const nn::Graph& g,
                       const std::vector<nn::Tensor>& calib) {
  Products p;
  p.plan = core::build_quantmcu_plan(g, subject_device(), calib,
                                     core::QuantMcuConfig{});
  p.ranges = quant::calibrate_ranges(g, calib);
  p.deploy_cfg = core::make_deployment_quant_config(g, p.plan, p.ranges);
  p.branch_cfgs = core::make_branch_quant_configs(g, p.plan, p.ranges);
  return p;
}

// One pass of the paper's offline path, each step under its own span.
struct DeployStep {
  Products products;
  patch::LoadedPatchModel loaded;
  nn::QTensor first_output;
};

DeployStep deploy_once(const nn::Graph& g, const std::vector<nn::Tensor>& calib,
                       const nn::Tensor& probe, const std::string& artifact,
                       Tracer* tr, int root, std::int64_t rep) {
  const auto timed = [&](const char* name, const auto& body) {
    const std::int64_t t0 = now_ns();
    body();
    if (tr != nullptr) tr->add(name, t0, now_ns(), root, rep);
  };
  DeployStep d;
  Products& p = d.products;
  timed("core.plan", [&] {
    p.plan = core::build_quantmcu_plan(g, subject_device(), calib,
                                       core::QuantMcuConfig{});
  });
  timed("quant.calibrate",
        [&] { p.ranges = quant::calibrate_ranges(g, calib); });
  timed("core.configs", [&] {
    p.deploy_cfg = core::make_deployment_quant_config(g, p.plan, p.ranges);
    p.branch_cfgs = core::make_branch_quant_configs(g, p.plan, p.ranges);
  });
  timed("artifact.bake", [&] {
    patch::compile_to_artifact(g, p.plan.patch_plan.spec, p.deploy_cfg,
                               p.branch_cfgs, artifact);
  });
  timed("artifact.load",
        [&] { d.loaded = patch::load_compiled_patch(artifact); });
  timed("patch.first_run",
        [&] { d.first_output = d.loaded.model->run(probe); });
  return d;
}

// What the set-up child hands back: the checks it made, the plan's counts
// and the reference outputs.
struct Prepared {
  bool seed_check_ok = false;
  std::int64_t reference_mismatches = 0;  // Reference tier vs compiled
  PlanFacts facts;
  std::vector<Expected> image_ref;  // Reference tier, every serve image
  std::vector<std::vector<Expected>> frame_ref;  // full recompute per frame
};

void prepare(const Inputs& in, const std::string& workload, bool all,
             std::uint64_t seed, bool deploy, const std::string& artifact,
             Prepared& out) {
  const std::uint64_t mine = digest(in, seed);
  out.seed_check_ok = digest(make_inputs(workload, all, seed), seed) == mine &&
                      digest(make_inputs(workload, all, seed + 1), seed + 1) !=
                          mine;
  if (!deploy) return;
  const nn::Graph g = make_subject();
  const Products p = plan_products(g, in.calib);
  patch::compile_to_artifact(g, p.plan.patch_plan.spec, p.deploy_cfg,
                             p.branch_cfgs, artifact);
  out.facts = plan_facts(g, p.plan);
  out.facts.artifact_bytes = static_cast<double>(fs::file_size(artifact));
  const patch::LoadedPatchModel loaded = patch::load_compiled_patch(artifact);
  out.facts.arena_kib = static_cast<double>(loaded.model->arena_bytes()) / 1024;
  // A different path for every reference: the Reference kernel tier built
  // from the configs (not the artifact) for request images; the sequential
  // compiled path for stream frames, itself spot-checked against the
  // Reference tier.
  const patch::CompiledPatchQuantModel ref(g, p.plan.patch_plan, p.deploy_cfg,
                                           p.branch_cfgs,
                                           nn::ops::KernelTier::Reference);
  for (const nn::Tensor& img : in.images) {
    out.image_ref.push_back(expect(ref.run(img)));
  }
  for (const auto& frames : in.streams) {
    out.frame_ref.emplace_back();
    for (std::size_t f = 0; f < frames.size(); ++f) {
      out.frame_ref.back().push_back(expect(loaded.model->run(frames[f])));
      if (f < static_cast<std::size_t>(kReferenceSample) &&
          !matches(ref.run(frames[f]), out.frame_ref.back().back())) {
        ++out.reference_mismatches;
      }
    }
  }
}

bool write_prepared(const std::string& path, const Prepared& p) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t ok = p.seed_check_ok ? 1 : 0;
  const std::uint64_t images = p.image_ref.size();
  const std::uint64_t streams = p.frame_ref.size();
  bool good = std::fwrite(&ok, sizeof ok, 1, f) == 1 &&
              std::fwrite(&p.reference_mismatches,
                          sizeof p.reference_mismatches, 1, f) == 1 &&
              std::fwrite(&p.facts, sizeof p.facts, 1, f) == 1 &&
              std::fwrite(&images, sizeof images, 1, f) == 1 &&
              std::fwrite(&streams, sizeof streams, 1, f) == 1;
  for (const Expected& e : p.image_ref) good = good && write_expected(f, e);
  for (const auto& frames : p.frame_ref) {
    const std::uint64_t n = frames.size();
    good = good && std::fwrite(&n, sizeof n, 1, f) == 1;
    for (const Expected& e : frames) good = good && write_expected(f, e);
  }
  return std::fclose(f) == 0 && good;
}

bool read_prepared(const std::string& path, Prepared& p) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t ok = 0;
  std::uint64_t images = 0;
  std::uint64_t streams = 0;
  bool good = std::fread(&ok, sizeof ok, 1, f) == 1 &&
              std::fread(&p.reference_mismatches,
                         sizeof p.reference_mismatches, 1, f) == 1 &&
              std::fread(&p.facts, sizeof p.facts, 1, f) == 1 &&
              std::fread(&images, sizeof images, 1, f) == 1 &&
              std::fread(&streams, sizeof streams, 1, f) == 1 &&
              images <= 4096 && streams <= 64;
  p.seed_check_ok = ok == 1;
  p.image_ref.resize(good ? images : 0);
  for (Expected& e : p.image_ref) good = good && read_expected(f, e);
  p.frame_ref.resize(good ? streams : 0);
  for (auto& frames : p.frame_ref) {
    std::uint64_t n = 0;
    good = good && std::fread(&n, sizeof n, 1, f) == 1 && n <= 4096;
    frames.resize(good ? n : 0);
    for (Expected& e : frames) good = good && read_expected(f, e);
  }
  std::fclose(f);
  return good;
}

// Runs prepare() in a forked child and reads its results back. Called
// before the process starts any thread.
Prepared prepare_in_child(const Inputs& in, const Options& o, bool deploy,
                          const std::string& artifact) {
  const std::string result = artifact + ".ref";
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      Prepared p;
      prepare(in, o.workload, o.trace, o.seed, deploy, artifact, p);
      if (!write_prepared(result, p)) rc = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench set-up failed: %s\n", e.what());
      rc = 1;
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  Prepared p;
  const bool ok = read_prepared(result, p);
  fs::remove(result);
  if (!ok) throw std::runtime_error("cannot read set-up results");
  return p;
}

// ---- bench-side model wrapper -----------------------------------------------

// One operation of a measured phase: a request, a stream frame.
struct Op {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t exec_end = -1;
  std::int64_t done = -1;
  int input = 0;  // image index, or frame position for streams
  int stream = -1;
  bool hold = false;
  Status status = kPending;
  int span = -1;  // root span (traced runs)
};

// Maps the input buffer a lane executes back to the operation that
// submitted it (the library sees only tensors), and records execute times
// and, when tracing, the queue-wait and execute spans.
class ExecLog {
 public:
  explicit ExecLog(Tracer* tr) : tracer_(tr) {}

  void begin(std::vector<Op>* ops) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_ = ops;
    by_input_.clear();
  }
  void end() {
    std::lock_guard<std::mutex> lock(mu_);
    ops_ = nullptr;
    by_input_.clear();
  }
  void bind(const float* input, std::size_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    by_input_[input] = op;
  }
  void executed(const float* input, std::int64_t t0, std::int64_t t1,
                const char* run_span, const char* queue_span) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_input_.find(input);
    if (ops_ == nullptr || it == by_input_.end()) return;  // warm-up
    const std::size_t idx = it->second;
    by_input_.erase(it);
    Op& op = (*ops_)[idx];
    op.exec_end = t1;
    if (tracer_ != nullptr) {
      const auto req = static_cast<std::int64_t>(idx);
      tracer_->add(queue_span, op.sent, t0, op.span, req);
      tracer_->add(run_span, t0, t1, op.span, req);
    }
  }
  void first_run(std::int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    first_runs_ms_.push_back(ms(ns));
  }
  [[nodiscard]] std::vector<double> first_runs_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_runs_ms_;
  }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

 private:
  mutable std::mutex mu_;
  std::vector<Op>* ops_ = nullptr;
  std::unordered_map<const float*, std::size_t> by_input_;
  std::vector<double> first_runs_ms_;
  Tracer* tracer_;
};

// The serving lanes' model: forwards to the loaded artifact model and
// reports each execution to the ExecLog.
class BenchModel {
 public:
  BenchModel(patch::LoadedPatchModel m, ExecLog* log)
      : m_(std::move(m)), log_(log) {}

  nn::QTensor run(const nn::Tensor& in) const {
    return timed(in, "patch.run", "serving.queue",
                 [&] { return m_.model->run(in); });
  }
  nn::QTensor run(const nn::Tensor& in, nn::WorkerPool* pool) const {
    return timed(in, "patch.run", "serving.queue",
                 [&] { return m_.model->run(in, pool); });
  }
  nn::QTensor run_streaming(const nn::Tensor& in, nn::WorkerPool* pool,
                            patch::StreamState& state) const {
    return timed(in, "patch.run_streaming", "serving.stream_queue",
                 [&] { return m_.model->run_streaming(in, pool, state); });
  }
  [[nodiscard]] const patch::PatchPlan& plan() const {
    return m_.model->plan();
  }
  [[nodiscard]] std::span<const patch::PipelinedTailLayer> pipelined_tail()
      const {
    return m_.model->pipelined_tail();
  }
  void set_arena_source(std::shared_ptr<nn::ArenaSlab> slab) {
    m_.model->set_arena_source(std::move(slab));
  }

 private:
  template <class F>
  nn::QTensor timed(const nn::Tensor& in, const char* run_span,
                    const char* queue_span, const F& body) const {
    const std::int64_t t0 = now_ns();
    nn::QTensor out = body();
    const std::int64_t t1 = now_ns();
    if (!ran_) {
      ran_ = true;
      log_->first_run(t1 - t0);
    }
    log_->executed(in.data().data(), t0, t1, run_span, queue_span);
    return out;
  }

  patch::LoadedPatchModel m_;
  ExecLog* log_;
  mutable bool ran_ = false;  // one lane thread runs this model
};

using Frontend = nn::serving::ServingFrontend<BenchModel>;

std::unique_ptr<Frontend> make_frontend(const std::string& artifact,
                                        ExecLog& log) {
  nn::serving::ServingConfig cfg;
  cfg.sessions = kLanes;
  cfg.core_budget = kLanes * kWorkersPerLane;
  return std::make_unique<Frontend>(
      cfg, [&artifact, &log](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
        auto m = std::make_unique<BenchModel>(
            patch::load_compiled_patch(artifact), &log);
        m->set_arena_source(slab);
        return m;
      });
}

// ---- phase summaries --------------------------------------------------------

// An open-loop phase.
struct Phase {
  // Completed operations, due -> result. Stream hold frames are left out:
  // they are byte-identical repeats answered from the retained output
  // without running the model, and half of all frames, so with them the
  // median would sit on the boundary between two modes.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;      // send time - due time
  std::int64_t attempted = 0;
  std::int64_t ok = 0;  // correct and within the limit
  std::int64_t failed = 0;  // rejected, expired, threw or mismatched
  std::int64_t mismatched = 0;
};

Phase summarize(const std::vector<Op>& ops) {
  Phase ph;
  for (const Op& op : ops) {
    ++ph.attempted;
    ph.lag_ms.push_back(ms(op.sent - op.due));
    if (op.status == kOk || op.status == kMismatch) {
      const double lat = ms(op.done - op.due);
      if (!op.hold) ph.latency_ms.push_back(lat);
      if (op.status == kOk && lat <= kLimitMs) ++ph.ok;
    }
    if (op.status != kOk) ++ph.failed;
    if (op.status == kMismatch) ++ph.mismatched;
  }
  return ph;
}

void merge(Phase& into, const Phase& seg) {
  into.latency_ms.insert(into.latency_ms.end(), seg.latency_ms.begin(),
                         seg.latency_ms.end());
  into.lag_ms.insert(into.lag_ms.end(), seg.lag_ms.begin(), seg.lag_ms.end());
  into.attempted += seg.attempted;
  into.ok += seg.ok;
  into.failed += seg.failed;
  into.mismatched += seg.mismatched;
}

// A closed-loop phase: how many operations completed correctly, and in
// how long (the drain of the last ones included).
struct Closed {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;      // correct
  std::int64_t failed = 0;  // threw or mismatched
  std::int64_t mismatched = 0;
  double seconds = 0.0;

  void merge(const Closed& c) {
    attempted += c.attempted;
    ok += c.ok;
    failed += c.failed;
    mismatched += c.mismatched;
    seconds += c.seconds;
  }
  [[nodiscard]] double per_s() const {
    return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
  }
};

// Waits for one closed-loop operation and checks it against its reference.
void resolve(std::future<nn::QTensor>& f, const Expected& ref, Closed& c) {
  ++c.attempted;
  try {
    if (matches(f.get(), ref)) {
      ++c.ok;
      return;
    }
    ++c.mismatched;
  } catch (...) {
  }
  ++c.failed;
}

void add_roots(Tracer* tr, std::vector<Op>& ops) {
  if (tr == nullptr) return;
  for (Op& op : ops) op.span = tr->reserve();
}

void fill_roots(Tracer* tr, const std::vector<Op>& ops, const char* name) {
  if (tr == nullptr) return;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    tr->fill(op.span, name, op.due, op.done >= 0 ? op.done : op.sent, -1,
             static_cast<std::int64_t>(i));
  }
}

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- serve ------------------------------------------------------------------

struct ServeResult {
  std::vector<double> setup_s;
  std::vector<double> first_run_ms;
  Phase open;
  Closed closed;
  std::int64_t rejected = 0;  // from ServingStats
  std::int64_t expired = 0;
  std::int64_t mismatches = 0;  // every phase, warm-up included
  double rss_mib = 0.0;
};

Phase serve_phase(Frontend& fe, ExecLog& log, const Inputs& in,
                  const Prepared& prep, double rate, double seconds,
                  std::uint64_t seed, const char* name,
                  std::int64_t& mismatches) {
  const std::vector<std::int64_t> sched = poisson_offsets(rate, seconds, seed);
  std::vector<Op> ops(sched.size());
  nn::Rng pick(seed ^ 0x5eed);
  for (Op& op : ops) {
    op.input = static_cast<int>(pick.next_u64() % in.images.size());
  }
  Tracer* tr = log.tracer();
  add_roots(tr, ops);
  std::vector<std::future<nn::QTensor>> futures;
  futures.reserve(ops.size());
  log.begin(&ops);
  const std::int64_t start = now_ns() + 2'000'000;
  const auto limit = static_cast<std::int64_t>(kLimitMs * 1e6);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    op.due = start + sched[i];
    nn::Tensor t = in.images[static_cast<std::size_t>(op.input)];
    std::this_thread::sleep_until(at_ns(op.due));
    log.bind(t.data().data(), i);
    op.sent = now_ns();
    futures.push_back(fe.submit(std::move(t), at_ns(op.due + limit)));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    try {
      const nn::QTensor out = futures[i].get();
      op.done = op.exec_end;
      const Expected& ref =
          prep.image_ref[static_cast<std::size_t>(op.input)];
      op.status = matches(out, ref) ? kOk : kMismatch;
      // A completion the lane never reported cannot be timed.
      if (op.exec_end < 0) op.status = kFailed;
    } catch (const nn::serving::RejectedError&) {
      op.status = kRejected;
    } catch (const nn::serving::DeadlineExceededError&) {
      op.status = kExpired;
    } catch (...) {
      op.status = kFailed;
    }
  }
  log.end();
  const std::int64_t end = now_ns();
  if (tr != nullptr) tr->add(name, start, end);
  fill_roots(tr, ops, name);
  Phase ph = summarize(ops);
  mismatches += ph.mismatched;
  return ph;
}

// Closed loop: kServeDepth requests in flight from the generator, the
// oldest replaced as soon as it resolves, so both lanes stay busy. No
// deadline: the phase measures capacity, not admission.
Closed serve_closed(Frontend& fe, const Inputs& in, const Prepared& prep,
                    double seconds, std::uint64_t seed, Tracer* tr) {
  Closed c;
  nn::Rng pick(seed);
  std::deque<std::pair<std::size_t, std::future<nn::QTensor>>> inflight;
  const auto pop = [&] {
    auto& [img, f] = inflight.front();
    resolve(f, prep.image_ref[img], c);
    inflight.pop_front();
  };
  const std::int64_t start = now_ns();
  const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < until) {
    while (inflight.size() < static_cast<std::size_t>(kServeDepth)) {
      const std::size_t img = pick.next_u64() % in.images.size();
      inflight.emplace_back(img, fe.submit(in.images[img]));
    }
    pop();
  }
  while (!inflight.empty()) pop();
  const std::int64_t end = now_ns();
  c.seconds = static_cast<double>(end - start) / 1e9;
  if (tr != nullptr) tr->add("serve.closed", start, end);
  return c;
}

ServeResult run_serve(const Inputs& in, const Prepared& prep,
                      const std::string& artifact, double seconds,
                      std::uint64_t seed, Tracer* tr) {
  ServeResult r;
  ExecLog log(tr);
  std::unique_ptr<Frontend> fe;
  // Set-up as a user pays it: artifact load per lane, front-end
  // construction, and warm-up until every lane has run once.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fe.reset();
    const std::size_t runs_before = log.first_runs_ms().size();
    const std::int64_t t0 = now_ns();
    fe = make_frontend(artifact, log);
    // submit_batch puts one chunk per lane on the queue, so both idle lanes
    // take one image each; repeat in the rare case one lane took both.
    for (int round = 0; round < 16; ++round) {
      std::vector<nn::Tensor> batch(in.images.begin(),
                                    in.images.begin() + kLanes);
      std::vector<std::future<nn::QTensor>> warm =
          fe->submit_batch(std::move(batch));
      for (std::size_t i = 0; i < warm.size(); ++i) {
        if (!matches(warm[i].get(), prep.image_ref[i])) ++r.mismatches;
      }
      if (log.first_runs_ms().size() >= runs_before + kLanes) break;
    }
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.first_run_ms = log.first_runs_ms();

  for (int seg = 0; seg < kSegments; ++seg) {
    const Phase open = serve_phase(*fe, log, in, prep, kServeRate,
                                   kOpenShare * seconds / kSegments,
                                   mix(seed, 200 + seg), "serve.open",
                                   r.mismatches);
    const Closed closed =
        serve_closed(*fe, in, prep, (1.0 - kOpenShare) * seconds / kSegments,
                     mix(seed, 300 + seg), tr);
    merge(r.open, open);
    r.closed.merge(closed);
  }
  r.mismatches += r.closed.mismatched;
  const nn::serving::ServingStats st = fe->stats();
  r.rejected = static_cast<std::int64_t>(st.rejected);
  r.expired = static_cast<std::int64_t>(st.expired);
  r.rss_mib = rss_peak_mib();
  return r;
}

// ---- stream -----------------------------------------------------------------

struct StreamResult {
  std::vector<double> setup_s;
  std::vector<double> first_run_ms;
  Phase open;
  Closed closed;
  nn::streaming::StreamingStats stats;  // summed over streams
  std::int64_t mismatches = 0;
  double rss_mib = 0.0;
};

// Completion order within a stream is its submission order (one lane,
// FIFO), so one waiter per stream timestamps each frame as it resolves
// without head-of-line error.
class StreamWaiter {
 public:
  StreamWaiter(std::vector<Op>& ops, const std::vector<Expected>& ref)
      : ops_(ops), ref_(ref), thread_([this] { loop(); }) {}
  StreamWaiter(const StreamWaiter&) = delete;
  StreamWaiter& operator=(const StreamWaiter&) = delete;
  ~StreamWaiter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  void push(std::size_t op, std::future<nn::QTensor> f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back(op, std::move(f));
    }
    cv_.notify_one();
  }
  [[nodiscard]] std::int64_t resolved() const {
    return resolved_.load(std::memory_order_acquire);
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, std::future<nn::QTensor>> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      Op& op = ops_[item.first];
      try {
        const nn::QTensor out = item.second.get();
        op.done = now_ns();
        op.status = matches(out, ref_[static_cast<std::size_t>(op.input)])
                        ? kOk
                        : kMismatch;
      } catch (...) {
        op.status = kFailed;
      }
      resolved_.fetch_add(1, std::memory_order_release);
    }
  }

  std::vector<Op>& ops_;
  const std::vector<Expected>& ref_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::future<nn::QTensor>>> queue_;
  bool closed_ = false;
  std::atomic<std::int64_t> resolved_{0};
  std::thread thread_;  // last: starts after the members it uses
};

Phase stream_phase(Frontend& fe, ExecLog& log, const Inputs& in,
                   const Prepared& prep, const std::vector<std::uint64_t>& ids,
                   std::vector<std::int64_t>& cursor, double fps,
                   double seconds, const char* name,
                   std::int64_t& mismatches) {
  const auto frames = static_cast<std::int64_t>(fps * seconds);
  std::vector<Op> ops(static_cast<std::size_t>(frames * kStreams));
  const double period_ns = 1e9 / fps;
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::int64_t k = 0; k < frames; ++k) {
    for (int s = 0; s < kStreams; ++s) {
      Op& op = ops[static_cast<std::size_t>(k * kStreams + s)];
      op.stream = s;
      op.due = start + static_cast<std::int64_t>(
                           (static_cast<double>(k) +
                            static_cast<double>(s) / kStreams) *
                           period_ns);
      const std::int64_t c = cursor[static_cast<std::size_t>(s)]++;
      op.input = frame_position(c);
      op.hold = is_hold(c);
    }
  }
  Tracer* tr = log.tracer();
  add_roots(tr, ops);
  log.begin(&ops);
  {
    std::vector<std::unique_ptr<StreamWaiter>> waiters;
    for (int s = 0; s < kStreams; ++s) {
      waiters.push_back(std::make_unique<StreamWaiter>(
          ops, prep.frame_ref[static_cast<std::size_t>(s)]));
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      const auto s = static_cast<std::size_t>(op.stream);
      nn::Tensor t = in.streams[s][static_cast<std::size_t>(op.input)];
      std::this_thread::sleep_until(at_ns(op.due));
      if (!op.hold) log.bind(t.data().data(), i);
      op.sent = now_ns();
      waiters[s]->push(i, fe.submit_stream(ids[s], std::move(t)));
    }
  }  // waiters drain and join here
  log.end();
  if (tr != nullptr) tr->add(name, start, now_ns());
  fill_roots(tr, ops, name);
  Phase ph = summarize(ops);
  mismatches += ph.mismatched;
  return ph;
}

// Closed loop: kStreamDepth frames in flight per stream, resolved round
// robin (each stream runs on its own lane), so both lanes stay busy. Every
// frame counts, hold frames included: frames per second is what a camera
// user sees.
Closed stream_closed(Frontend& fe, const Inputs& in, const Prepared& prep,
                     const std::vector<std::uint64_t>& ids,
                     std::vector<std::int64_t>& cursor, double seconds,
                     Tracer* tr) {
  Closed c;
  std::vector<std::deque<std::pair<int, std::future<nn::QTensor>>>> inflight(
      kStreams);
  const auto submit = [&](std::size_t s) {
    const int pos = frame_position(cursor[s]++);
    inflight[s].emplace_back(
        pos, fe.submit_stream(ids[s], in.streams[s][static_cast<std::size_t>(
                                          pos)]));
  };
  const auto pop = [&](std::size_t s) {
    auto& [pos, f] = inflight[s].front();
    resolve(f, prep.frame_ref[s][static_cast<std::size_t>(pos)], c);
    inflight[s].pop_front();
  };
  const std::int64_t start = now_ns();
  const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (int d = 0; d < kStreamDepth; ++d) submit(s);
  }
  while (now_ns() < until) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      pop(s);
      submit(s);
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    while (!inflight[s].empty()) pop(s);
  }
  const std::int64_t end = now_ns();
  c.seconds = static_cast<double>(end - start) / 1e9;
  if (tr != nullptr) tr->add("stream.closed", start, end);
  return c;
}

StreamResult run_stream(const Inputs& in, const Prepared& prep,
                        const std::string& artifact, double seconds,
                        Tracer* tr) {
  StreamResult r;
  ExecLog log(tr);
  std::unique_ptr<Frontend> fe;
  std::vector<std::uint64_t> ids;
  // Set-up: artifact load per lane, front-end construction, opening both
  // streams and priming each with its first frame (a full run per lane).
  // A stream's retained arena is leased from the front-end's slab and must
  // be returned while the slab lives, so streams are closed before their
  // front-end is destroyed (ServingFrontend destroys its session pool, and
  // with it the slab, before its open streams).
  const auto close_streams = [&fe, &ids] {
    for (std::uint64_t id : ids) fe->close_stream(id);
    ids.clear();
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fe) close_streams();
    fe.reset();
    const std::int64_t t0 = now_ns();
    fe = make_frontend(artifact, log);
    std::vector<std::future<nn::QTensor>> first;
    for (int s = 0; s < kStreams; ++s) {
      ids.push_back(fe->open_stream());
      first.push_back(fe->submit_stream(
          ids.back(), in.streams[static_cast<std::size_t>(s)][0]));
    }
    for (int s = 0; s < kStreams; ++s) {
      if (!matches(first[static_cast<std::size_t>(s)].get(),
                   prep.frame_ref[static_cast<std::size_t>(s)][0])) {
        ++r.mismatches;
      }
    }
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.first_run_ms = log.first_runs_ms();
  std::vector<std::int64_t> cursor(kStreams, 1);

  for (int seg = 0; seg < kSegments; ++seg) {
    const Phase open = stream_phase(*fe, log, in, prep, ids, cursor,
                                    kStreamFps,
                                    kOpenShare * seconds / kSegments,
                                    "stream.open", r.mismatches);
    const Closed closed =
        stream_closed(*fe, in, prep, ids, cursor,
                      (1.0 - kOpenShare) * seconds / kSegments, tr);
    merge(r.open, open);
    r.closed.merge(closed);
  }
  r.mismatches += r.closed.mismatched;
  r.rss_mib = rss_peak_mib();
  for (std::uint64_t id : ids) {
    const nn::streaming::StreamingStats s = fe->stream_stats(id).get();
    r.stats.frames += s.frames;
    r.stats.unchanged_frames += s.unchanged_frames;
    r.stats.branches_recomputed += s.branches_recomputed;
    r.stats.branches_skipped += s.branches_skipped;
    r.stats.bands_run += s.bands_run;
    r.stats.bands_skipped += s.bands_skipped;
  }
  close_streams();
  return r;
}

// ---- deploy -----------------------------------------------------------------

struct DeployResult {
  std::vector<double> setup_s;
  std::vector<double> rep_ms;  // one repetition each
  double seconds = 0.0;        // the closed loop's duration
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t mismatches = 0;
  PlanFacts facts;
  Products first;  // the first repetition's plan and configs
  std::string first_artifact;
  double rss_mib = 0.0;
};

// One deploy repetition as the oracle sees it.
struct DeployRecord {
  core::QuantMcuPlan plan;
  Expected first_output;
};

DeployResult run_deploy(const Inputs& in, const Options& o, double seconds,
                        Tracer* tr) {
  DeployResult r;
  // Set-up: constructing the float model the offline path starts from.
  std::unique_ptr<nn::Graph> g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g.reset();
    const std::int64_t t0 = now_ns();
    g = std::make_unique<nn::Graph>(make_subject());
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::string stem = o.work_dir + "/deploy-" + std::to_string(getpid());
  const std::string artifact = stem + "-rep.qmcp";
  // One caller's closed loop. The first repetition keeps its products as
  // the oracle's reference.
  std::vector<DeployRecord> records;
  const std::int64_t start = now_ns();
  const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t rep = 0; now_ns() < until; ++rep) {
    const int root = tr != nullptr ? tr->reserve() : -1;
    const std::int64_t t0 = now_ns();
    DeployStep d =
        deploy_once(*g, in.deploy_calib, in.probes[0], artifact, tr, root,
                    rep);
    const std::int64_t t1 = now_ns();
    if (tr != nullptr) {
      tr->fill(root, "deploy.rep", t0, t1);
      // The paper's VDPC classification, timed on its own on the same
      // calibration images (it runs inside build_quantmcu_plan).
      for (const nn::Tensor& img : in.deploy_calib) {
        const std::int64_t c0 = now_ns();
        (void)core::classify_patches(img, d.products.plan.patch_plan,
                                     core::QuantMcuConfig{}.vdpc);
        tr->add("core.vdpc_classify", c0, now_ns());
      }
    }
    r.rep_ms.push_back(ms(t1 - t0));
    records.push_back({d.products.plan, expect(d.first_output)});
    if (rep == 0) r.first = std::move(d.products);
  }
  r.seconds = static_cast<double>(now_ns() - start) / 1e9;
  r.attempted = static_cast<std::int64_t>(records.size());
  r.rss_mib = rss_peak_mib();

  // Oracle (untimed): every repetition planned identically to the first,
  // and its first inference equals the Reference tier built from the first
  // repetition's configs; that artifact, baked again and loaded, equals the
  // Reference tier on every probe image.
  const patch::CompiledPatchQuantModel ref(
      *g, r.first.plan.patch_plan, r.first.deploy_cfg, r.first.branch_cfgs,
      nn::ops::KernelTier::Reference);
  const Expected ref0 = expect(ref.run(in.probes[0]));
  for (const DeployRecord& rec : records) {
    const bool good = same_plan(rec.plan, r.first.plan) &&
                      rec.first_output.bytes == ref0.bytes &&
                      rec.first_output.params == ref0.params &&
                      rec.first_output.shape == ref0.shape;
    r.ok += good ? 1 : 0;
    r.mismatches += good ? 0 : 1;
  }
  r.first_artifact = stem + "-first.qmcp";
  patch::compile_to_artifact(*g, r.first.plan.patch_plan.spec,
                             r.first.deploy_cfg, r.first.branch_cfgs,
                             r.first_artifact);
  const patch::LoadedPatchModel loaded =
      patch::load_compiled_patch(r.first_artifact);
  for (const nn::Tensor& p : in.probes) {
    if (!matches(loaded.model->run(p), expect(ref.run(p)))) ++r.mismatches;
  }
  r.facts = plan_facts(*g, r.first.plan);
  r.facts.arena_kib = static_cast<double>(loaded.model->arena_bytes()) / 1024;
  r.facts.artifact_bytes =
      static_cast<double>(fs::file_size(r.first_artifact));
  fs::remove(artifact);
  return r;
}

// ---- end-to-end report ------------------------------------------------------

void add(Report& rep, const std::string& name, double value,
         const std::string& unit) {
  rep.metrics.push_back({name, value, unit});
}

void add_common(Report& rep, double setup_s, double rss, const PlanFacts& f) {
  add(rep, "setup_s", setup_s, "s");
  add(rep, "rss_peak_mib", rss, "MiB");
  add(rep, "bitops_m", f.bitops_m, "MBitOPs");
  add(rep, "arena_kib", f.arena_kib, "KiB");
}

// Latency of the open loop (or of each deploy repetition), capacity of the
// closed loop, and the share of operations that completed correctly.
void add_service(Report& rep, const std::vector<double>& latency_ms,
                 double capacity_per_s, std::int64_t attempted,
                 std::int64_t ok, std::int64_t failed) {
  add(rep, "latency_p50_ms", median(latency_ms), "ms");
  add(rep, "capacity_per_s", capacity_per_s, "1/s");
  add(rep, "ok_frac",
      attempted > 0
          ? static_cast<double>(ok) / static_cast<double>(attempted)
          : 0.0,
      "fraction");
  rep.attempted = attempted;
  rep.failed = failed;
}

// ---- traced run -------------------------------------------------------------

struct SpanIndex {
  std::vector<Span> spans;
  // Durations (ms) of spans called `name` whose parent is called `parent`
  // (any parent when empty).
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              const std::string& parent = "")
      const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (name != s.name) continue;
      if (!parent.empty() &&
          (s.parent < 0 ||
           parent != spans[static_cast<std::size_t>(s.parent)].name)) {
        continue;
      }
      out.push_back(ms(s.end - s.start));
    }
    return out;
  }
  [[nodiscard]] double window_ms(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans) {
      if (name == s.name && s.parent < 0 && s.req < 0) {
        total += ms(s.end - s.start);
      }
    }
    return total;
  }
};

struct Quiet {
  std::vector<double> mixed_ms;
  std::vector<double> uniform8_ms;
  std::vector<double> layer_ms;
  std::vector<double> motion_ms;
  std::vector<double> hold_ms;
  std::vector<double> diff_ms;
  std::vector<double> full_ms;
  std::int64_t mismatches = 0;
};

// Reference timings with no traffic: the same images through the served
// mixed-precision patch model, a uniform-int8 patch model and the
// layer-based compiled model, and one camera stream driven directly
// through StreamingSession (next() on motion and hold frames, diff_frames
// on the same frame pairs, full recompute of the same frames).
Quiet quiet_probes(const nn::Graph& g, const Products& p,
                   const std::string& artifact, const Inputs& in) {
  Quiet q;
  nn::WorkerPool pool(kWorkersPerLane);
  const patch::LoadedPatchModel mixed = patch::load_compiled_patch(artifact);
  const patch::CompiledPatchQuantModel u8(
      g, p.plan.patch_plan,
      quant::make_quant_config(g, p.ranges, nn::uniform_bits(g, 8)));
  const nn::CompiledQuantModel layer(g, p.deploy_cfg);
  const auto time = [](std::vector<double>& out, const auto& body) {
    const std::int64_t t0 = now_ns();
    body();
    out.push_back(ms(now_ns() - t0));
  };
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < 16; ++i) {
      const nn::Tensor& img = in.images[i];
      std::vector<double> discard;
      auto& m = pass == 0 ? discard : q.mixed_ms;  // pass 0 warms up
      auto& u = pass == 0 ? discard : q.uniform8_ms;
      auto& l = pass == 0 ? discard : q.layer_ms;
      time(m, [&] { (void)mixed.model->run(img, &pool); });
      time(u, [&] { (void)u8.run(img, &pool); });
      time(l, [&] { (void)layer.run(img); });
    }
  }
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  const std::vector<nn::Tensor>& frames = in.streams[0];
  const nn::Tensor* prev = nullptr;
  for (std::int64_t c = 0; c < 4 * kStreamPositions; ++c) {
    const nn::Tensor& f = frames[static_cast<std::size_t>(frame_position(c))];
    nn::QTensor out;
    std::vector<double> discard;
    time(c == 0 ? discard : is_hold(c) ? q.hold_ms : q.motion_ms,
         [&] { out = session.next(*mixed.model, f, &pool); });
    if (c > 0 && !is_hold(c)) {
      time(q.diff_ms, [&] { (void)patch::diff_frames(*prev, f); });
      nn::QTensor full;
      time(q.full_ms, [&] { full = mixed.model->run(f, &pool); });
      if (!matches(out, expect(full))) ++q.mismatches;
    }
    prev = &f;
  }
  return q;
}

Report traced_report(const Options& o, const Inputs& in, const Prepared& prep,
                     const std::string& artifact) {
  Report rep;
  // The named workload untraced and then traced, each for half the run
  // with identical settings: the difference in latency_p50_ms is the
  // tracing overhead. The other two workloads run traced for a few
  // seconds so every layer appears in every traced run.
  const double half = 0.5 * o.seconds;
  double untraced_p50 = 0.0;
  double traced_p50 = 0.0;
  Tracer tr;
  std::int64_t mismatches = 0;
  const auto secs = [&o, half](const char* w) {
    return o.workload == w ? half : kProbeSeconds;
  };
  if (o.workload == "serve") {
    const ServeResult u = run_serve(in, prep, artifact, half, o.seed, nullptr);
    untraced_p50 = median(u.open.latency_ms);
    mismatches += u.mismatches;
  } else if (o.workload == "stream") {
    const StreamResult u = run_stream(in, prep, artifact, half, nullptr);
    untraced_p50 = median(u.open.latency_ms);
    mismatches += u.mismatches;
  } else {
    const DeployResult u = run_deploy(in, o, half, nullptr);
    fs::remove(u.first_artifact);
    untraced_p50 = median(u.rep_ms);
    mismatches += u.mismatches;
  }
  const ServeResult serve =
      run_serve(in, prep, artifact, secs("serve"), o.seed, &tr);
  const StreamResult stream =
      run_stream(in, prep, artifact, secs("stream"), &tr);
  const DeployResult deploy = run_deploy(in, o, secs("deploy"), &tr);
  mismatches += serve.mismatches + stream.mismatches + deploy.mismatches;
  if (o.workload == "serve") {
    traced_p50 = median(serve.open.latency_ms);
    rep.attempted = serve.open.attempted + serve.closed.attempted;
    rep.failed = serve.open.failed + serve.closed.failed;
  } else if (o.workload == "stream") {
    traced_p50 = median(stream.open.latency_ms);
    rep.attempted = stream.open.attempted + stream.closed.attempted;
    rep.failed = stream.open.failed + stream.closed.failed;
  } else {
    traced_p50 = median(deploy.rep_ms);
    rep.attempted = deploy.attempted;
    rep.failed = deploy.attempted - deploy.ok;
  }
  const nn::Graph g = make_subject();
  const Quiet q = quiet_probes(g, plan_products(g, in.calib), artifact, in);
  mismatches += q.mismatches + prep.reference_mismatches;

  const SpanIndex idx{tr.spans()};
  const std::string trace_path =
      o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) +
      ".json";
  if (!tr.write_chrome_json(trace_path)) {
    throw std::runtime_error("cannot write " + trace_path);
  }
  std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", idx.spans.size(),
               trace_path.c_str());
  // Self time per span name, summed (the glue each layer adds around its
  // children).
  {
    const std::vector<std::int64_t> self = tr.self_ns();
    std::vector<std::pair<std::string, double>> by_name;
    for (std::size_t i = 0; i < idx.spans.size(); ++i) {
      const std::string name = idx.spans[i].name;
      auto it = std::find_if(by_name.begin(), by_name.end(),
                             [&](const auto& e) { return e.first == name; });
      if (it == by_name.end()) {
        by_name.emplace_back(name, 0.0);
        it = by_name.end() - 1;
      }
      it->second += ms(self[i]);
    }
    std::fprintf(stderr, "perfbench: self time by span (ms)\n");
    for (const auto& [name, v] : by_name) {
      std::fprintf(stderr, "  %-26s %12.3f\n", name.c_str(), v);
    }
  }

  const auto queue_open = idx.durations("serving.queue", "serve.open");
  const auto run_open = idx.durations("patch.run", "serve.open");
  double busy_ms = 0.0;
  for (double d : run_open) busy_ms += d;
  std::vector<double> lag = serve.open.lag_ms;
  lag.insert(lag.end(), stream.open.lag_ms.begin(), stream.open.lag_ms.end());
  std::vector<double> first_runs = serve.first_run_ms;
  first_runs.insert(first_runs.end(), stream.first_run_ms.begin(),
                    stream.first_run_ms.end());
  const PlanFacts& f = prep.facts;  // the served plan
  const PlanFacts& searched = deploy.facts;  // deploy's, from seeded images
  const auto frac = [](std::int64_t a, std::int64_t b) {
    return a + b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(a + b);
  };
  add(rep, "serving.queue_wait_p50_ms", median(queue_open), "ms");
  add(rep, "serving.queue_wait_p99_ms", tail(queue_open), "ms");
  add(rep, "serving.lane_busy_frac",
      busy_ms / (kLanes * idx.window_ms("serve.open")), "fraction");
  add(rep, "serving.rejected", static_cast<double>(serve.rejected), "count");
  add(rep, "serving.expired", static_cast<double>(serve.expired), "count");
  add(rep, "serving.stream_queue_p99_ms",
      tail(idx.durations("serving.stream_queue", "stream.open")), "ms");
  add(rep, "serving.request_p99_ms", tail(serve.open.latency_ms), "ms");
  add(rep, "serving.stream_frame_p99_ms", tail(stream.open.latency_ms), "ms");
  add(rep, "loadgen.lag_p99_ms", tail(lag), "ms");
  add(rep, "patch.run_p50_ms", median(run_open), "ms");
  add(rep, "patch.run_p99_ms", tail(run_open), "ms");
  add(rep, "patch.first_run_ms", median(first_runs), "ms");
  add(rep, "patch.redundant_mac_frac", f.redundant_mac_frac, "fraction");
  add(rep, "patch.mixed_run_p50_ms", median(q.mixed_ms), "ms");
  add(rep, "patch.uniform8_run_p50_ms", median(q.uniform8_ms), "ms");
  add(rep, "nn.layer_based_run_p50_ms", median(q.layer_ms), "ms");
  add(rep, "ops.macs_per_req", f.macs, "count");
  add(rep, "ops.sub8_mac_frac", f.sub8_mac_frac, "fraction");
  add(rep, "streaming.next_motion_p50_ms", median(q.motion_ms), "ms");
  add(rep, "streaming.next_hold_p50_ms", median(q.hold_ms), "ms");
  add(rep, "streaming.diff_p50_ms", median(q.diff_ms), "ms");
  add(rep, "streaming.full_run_p50_ms", median(q.full_ms), "ms");
  add(rep, "streaming.branch_skip_frac",
      frac(stream.stats.branches_skipped, stream.stats.branches_recomputed),
      "fraction");
  add(rep, "streaming.band_skip_frac",
      frac(stream.stats.bands_skipped, stream.stats.bands_run), "fraction");
  add(rep, "streaming.unchanged_frac",
      frac(stream.stats.unchanged_frames,
           stream.stats.frames - stream.stats.unchanged_frames),
      "fraction");
  add(rep, "core.plan_ms", median(idx.durations("core.plan")), "ms");
  add(rep, "core.vdpc_classify_ms",
      median(idx.durations("core.vdpc_classify")), "ms");
  add(rep, "core.vdqs_search_ms", searched.search_ms, "ms");
  add(rep, "quant.calibrate_ms", median(idx.durations("quant.calibrate")),
      "ms");
  add(rep, "core.configs_ms", median(idx.durations("core.configs")), "ms");
  add(rep, "core.sub8_fm_frac", searched.sub8_fm_frac, "fraction");
  add(rep, "core.repair_rounds", searched.repair_rounds, "count");
  add(rep, "core.calib_outlier_frac", searched.calib_outlier_frac,
      "fraction");
  add(rep, "artifact.bake_ms", median(idx.durations("artifact.bake")), "ms");
  add(rep, "artifact.load_ms", median(idx.durations("artifact.load")), "ms");
  add(rep, "artifact.bytes", f.artifact_bytes, "bytes");
  add(rep, "trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  add(rep, "trace.overhead_frac",
      untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0,
      "fraction");
  rep.correct = mismatches == 0;
  fs::remove(deploy.first_artifact);
  return rep;
}

}  // namespace

Report run_benchmark(const Options& o) {
  if (o.workload != "serve" && o.workload != "stream" &&
      o.workload != "deploy") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  fs::create_directories(o.work_dir);
  const Inputs in = make_inputs(o.workload, o.trace, o.seed);
  const bool needs_artifact = o.trace || o.workload != "deploy";
  const std::string artifact = o.work_dir + "/" + o.workload + "-" +
                               std::to_string(getpid()) + ".qmcp";
  const Prepared prep = prepare_in_child(in, o, needs_artifact, artifact);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      fs::remove(path, ec);
    }
  } cleanup{artifact};

  // Oracle self-test: one flipped byte in a real reference output must be
  // caught, and the untouched output must pass.
  bool oracle_ok = true;
  if (!prep.image_ref.empty() || !prep.frame_ref.empty()) {
    const Expected& e = !prep.image_ref.empty() ? prep.image_ref[0]
                                                : prep.frame_ref[0][0];
    nn::QTensor t(e.shape, e.params);
    std::copy(e.bytes.begin(), e.bytes.end(), t.data().begin());
    const bool clean = matches(t, e);
    t.data()[t.data().size() / 2] ^= 0x01;
    oracle_ok = clean && !matches(t, e);
  }
  if (!prep.seed_check_ok) {
    std::fprintf(stderr, "perfbench: seeded-input self-check failed\n");
  }
  if (!oracle_ok) std::fprintf(stderr, "perfbench: oracle self-test failed\n");

  Report rep;
  if (o.trace) {
    rep = traced_report(o, in, prep, artifact);
  } else if (o.workload == "serve") {
    const ServeResult r =
        run_serve(in, prep, artifact, o.seconds, o.seed, nullptr);
    add_common(rep, median(r.setup_s), r.rss_mib, prep.facts);
    add_service(rep, r.open.latency_ms, r.closed.per_s(),
                r.open.attempted + r.closed.attempted, r.open.ok + r.closed.ok,
                r.open.failed + r.closed.failed);
    rep.correct = r.mismatches == 0;
  } else if (o.workload == "stream") {
    const StreamResult r = run_stream(in, prep, artifact, o.seconds, nullptr);
    add_common(rep, median(r.setup_s), r.rss_mib, prep.facts);
    add_service(rep, r.open.latency_ms, r.closed.per_s(),
                r.open.attempted + r.closed.attempted, r.open.ok + r.closed.ok,
                r.open.failed + r.closed.failed);
    rep.correct = r.mismatches == 0;
  } else {
    const DeployResult r = run_deploy(in, o, o.seconds, nullptr);
    fs::remove(r.first_artifact);
    add_common(rep, median(r.setup_s), r.rss_mib, r.facts);
    add_service(rep, r.rep_ms,
                r.seconds > 0.0 ? static_cast<double>(r.ok) / r.seconds : 0.0,
                r.attempted, r.ok, r.attempted - r.ok);
    rep.correct = r.mismatches == 0;
  }
  rep.correct = rep.correct && prep.seed_check_ok && oracle_ok &&
                prep.reference_mismatches == 0;
  return rep;
}

}  // namespace perfbench
