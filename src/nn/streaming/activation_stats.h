// activation_stats.h — online activation statistics for quantization drift.
//
// Post-training quantization fixes each feature map's [lo, hi] range from a
// calibration batch. A streaming deployment then watches a *distribution*
// of inputs that the calibration batch may stop representing: scene
// changes, lighting shifts, sensor aging. When that happens the quantized
// runtime does not "see" the new range — values past the calibrated edge
// clamp to qmin/qmax, and a shrunken distribution wastes codes. Both are
// invisible in dequantized min/max (clamping hides them), so the tracker
// watches two observable symptoms instead:
//
//   saturation — the fraction of observed codes sitting exactly at
//     qmin/qmax (the quant::Histogram edge-bin construction preserves this
//     mass); calibrated ranges that became too narrow show up here.
//   under-utilization — the EMA of per-frame dequantized extrema covering
//     only a sliver of the calibrated span; ranges that became too wide
//     show up here (few codes carry all the signal).
//
// Both symptoms are measured RELATIVE TO A BASELINE captured from each
// layer's first observation (deployment right after calibration): rail
// mass and partial span coverage are normal steady-state facts — ReLU6
// puts an atom exactly on qmax, the zero-point rail carries the zero mass,
// and min/max calibration guarantees typical frames undershoot the span.
// Only their growth over the baseline is drift.
//
// A per-layer drift score is the larger of (rail-mass excess / budget) and
// a scaled utilization-loss term; the tracker's score is the max over
// tracked layers, and needs_recalibration() fires at drift_threshold. The tracker
// feeds from the compiled quant patch model's opt-in stats hook
// (set_stats_hook observes the assembled map and every tail layer once per
// completed streaming frame — run_streaming is the only run whose layout
// keeps every tail map alive to the end) and drifted_ranges() proposes
// refreshed quant::LayerRange values — widened on the saturating side,
// tightened onto the EMA extrema when shrunken — that flow straight into
// quant::make_quant_config for a re-calibration + hot swap.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "nn/tensor.h"
#include "quant/calibration.h"
#include "quant/histogram.h"

namespace qmcu::nn::streaming {

struct ActivationStatsConfig {
  // EMA weight of the newest frame's extrema (0 < ema <= 1).
  float ema = 0.1f;
  // Histogram resolution per tracked layer.
  int bins = 32;
  // Observe every Nth element of each feature map (>= 1); sampling keeps
  // the hook off the per-frame critical path.
  int sample_stride = 4;
  // Growth of the rail-mass fraction over the layer's baseline before it
  // counts as saturating (drift contribution 1.0 at exactly this excess).
  float saturation_budget = 0.02f;
  // drift_score() >= threshold => needs_recalibration().
  float drift_threshold = 1.0f;
};

class ActivationStatsTracker {
 public:
  explicit ActivationStatsTracker(ActivationStatsConfig cfg = {});

  // Folds one observation of layer `layer_id`'s quantized output. The
  // first observation fixes the layer's calibrated range from the tensor's
  // own params (scale * (q - zero_point) at the code-range edges) — pools
  // propagate producer params, so the observed tensor, not the static
  // config, is the source of truth.
  void observe(int layer_id, const nn::QTensor& t);

  // Max drift over all tracked layers (0 = none tracked yet).
  [[nodiscard]] double drift_score() const;
  [[nodiscard]] double layer_drift(int layer_id) const;
  [[nodiscard]] bool needs_recalibration() const {
    return drift_score() >=
           static_cast<double>(cfg_.drift_threshold);
  }
  // Fraction of observed codes at qmin/qmax, and the fraction of the
  // calibrated span the EMA extrema actually cover. Untracked layers
  // report 0 and 1 respectively.
  [[nodiscard]] double saturation_fraction(int layer_id) const;
  [[nodiscard]] double range_utilization(int layer_id) const;
  [[nodiscard]] std::int64_t observations() const { return observations_; }
  [[nodiscard]] const quant::Histogram* layer_histogram(int layer_id) const;

  // Refreshed ranges for quant::make_quant_config: per layer id in
  // [0, num_layers), the calibrated range widened on a saturating edge
  // (proportionally to the saturated mass) or tightened onto the EMA
  // extrema when utilization collapsed; `seen` is false for layers this
  // tracker never observed (callers keep their existing config there).
  [[nodiscard]] std::vector<quant::LayerRange> drifted_ranges(
      int num_layers) const;

  // Forget everything (after a re-calibration swap).
  void reset();

 private:
  struct LayerStats {
    float cal_lo = 0.0f;  // dequantized code-range edges at first sight
    float cal_hi = 0.0f;
    float ema_min = 0.0f;
    float ema_max = 0.0f;
    bool ema_seeded = false;
    std::int64_t samples = 0;
    std::int64_t sat_lo = 0;  // codes observed exactly at qmin / qmax
    std::int64_t sat_hi = 0;
    // Deployment baseline (the first observed frame, assumed
    // in-distribution) and EMAs of the per-frame rail-mass fractions:
    // drift is the EMA's excess over the baseline.
    double sat_lo_base = 0.0;
    double sat_hi_base = 0.0;
    double sat_lo_ema = 0.0;
    double sat_hi_ema = 0.0;
    double used_base = 1.0;  // baseline span coverage
    std::optional<quant::Histogram> hist;
  };

  [[nodiscard]] double drift_of(const LayerStats& s) const;

  ActivationStatsConfig cfg_;
  std::map<int, LayerStats> layers_;
  std::int64_t observations_ = 0;
};

}  // namespace qmcu::nn::streaming
