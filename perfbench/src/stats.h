// stats.h — the benchmark's own numeric helpers: the percentile rule, span
// self time and input digests. Header-only so the helper tests link nothing
// but this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The percentile rule: report the highest percentile, capped at p99, that
// still has at least 10 samples beyond it, i.e. q = min(0.99, 1 - 10/n).
// Below 21 samples no percentile above the median qualifies, so the rule
// falls back to the median.
inline double tail_quantile(std::size_t n) {
  if (n <= 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

// Nearest-rank value at quantile q of `v` (q in (0, 1]).
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(std::ceil(q * n - 1e-9), 1.0, n);
  return v[static_cast<std::size_t>(rank) - 1];
}

// The tail latency the rule supports for this sample.
inline double tail(const std::vector<double>& v) {
  if (v.size() <= 20) return median(v);
  return nearest_rank(v, tail_quantile(v.size()));
}

// One traced interval. `parent` indexes the span list (-1 = root).
struct SpanTimes {
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
};

// Self time of every span: its duration minus the part of its interval
// that its children cover. Children may overlap each other (parallel
// work), so their intervals are merged before subtracting.
inline std::vector<std::int64_t> self_times(std::span<const SpanTimes> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanTimes& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start;
    const std::int64_t hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// FNV-1a over raw bytes: the seeded-input self-check compares digests.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
