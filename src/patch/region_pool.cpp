#include "patch/region_pool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "nn/ops/int8_kernels.h"
#include "nn/ops/requantize.h"

namespace qmcu::patch {

namespace {

// Iterates the valid (in-bounds) window positions of one output element,
// asserting each is present in the available region.
template <typename Fn>
void for_each_valid(const Region& avail, const nn::Layer& l, int gy, int gx,
                    const nn::TensorShape& full, const Fn& fn) {
  const int iy0 = gy * l.stride_h - l.pad_h;
  const int ix0 = gx * l.stride_w - l.pad_w;
  for (int ky = 0; ky < l.kernel_h; ++ky) {
    const int iy = iy0 + ky;
    if (iy < 0 || iy >= full.h) continue;
    for (int kx = 0; kx < l.kernel_w; ++kx) {
      const int ix = ix0 + kx;
      if (ix < 0 || ix >= full.w) continue;
      QMCU_ENSURE(iy >= avail.y.begin && iy < avail.y.end &&
                      ix >= avail.x.begin && ix < avail.x.end,
                  "pool window element missing from region");
      fn(iy - avail.y.begin, ix - avail.x.begin);
    }
  }
}

void check_kind(const nn::Layer& l) {
  QMCU_REQUIRE(l.kind == nn::OpKind::MaxPool || l.kind == nn::OpKind::AvgPool,
               "region pooling handles MaxPool/AvgPool only");
}

}  // namespace

void pool_region_f32_into(const nn::Tensor& have, const Region& avail,
                          const nn::Layer& l, const Region& out_region,
                          const nn::TensorShape& full, nn::Tensor& out) {
  check_kind(l);
  const bool is_max = l.kind == nn::OpKind::MaxPool;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(out_region.y.size(),
                                              out_region.x.size(),
                                              have.shape().c),
               "pool_region_f32: destination shape mismatch");
  for (int gy = out_region.y.begin; gy < out_region.y.end; ++gy) {
    for (int gx = out_region.x.begin; gx < out_region.x.end; ++gx) {
      for (int c = 0; c < have.shape().c; ++c) {
        float best = std::numeric_limits<float>::lowest();
        float sum = 0.0f;
        int count = 0;
        for_each_valid(avail, l, gy, gx, full, [&](int y, int x) {
          const float v = have.at(y, x, c);
          best = std::max(best, v);
          sum += v;
          ++count;
        });
        out.at(gy - out_region.y.begin, gx - out_region.x.begin, c) =
            is_max ? best
                   : (count > 0 ? sum / static_cast<float>(count) : 0.0f);
      }
    }
  }
}

nn::Tensor pool_region_f32(const nn::Tensor& have, const Region& avail,
                           const nn::Layer& l, const Region& out_region,
                           const nn::TensorShape& full) {
  nn::Tensor out(nn::TensorShape{out_region.y.size(), out_region.x.size(),
                                 have.shape().c});
  pool_region_f32_into(have, avail, l, out_region, full, out);
  return out;
}

void pool_region_q_into(const nn::QTensor& have, const Region& avail,
                        const nn::Layer& l, const Region& out_region,
                        const nn::TensorShape& full, nn::QTensor& out) {
  check_kind(l);
  // Only the averaging path needs the reciprocal table.
  const std::optional<nn::ops::AvgPoolMultipliers> avg =
      l.kind == nn::OpKind::MaxPool
          ? std::nullopt
          : std::optional<nn::ops::AvgPoolMultipliers>(
                std::in_place, l.kernel_h * l.kernel_w);
  pool_region_q_into(have, avail, l, out_region, full,
                     avg ? &*avg : nullptr, out);
}

void pool_region_q_into(const nn::QTensor& have, const Region& avail,
                        const nn::Layer& l, const Region& out_region,
                        const nn::TensorShape& full,
                        const nn::ops::AvgPoolMultipliers* avg,
                        nn::QTensor& out) {
  check_kind(l);
  const bool is_max = l.kind == nn::OpKind::MaxPool;
  QMCU_REQUIRE(is_max || avg != nullptr,
               "pool_region_q: AvgPool needs a multiplier table");
  const nn::QuantParams& p = have.params();
  QMCU_REQUIRE(out.shape() == nn::TensorShape(out_region.y.size(),
                                              out_region.x.size(),
                                              have.shape().c),
               "pool_region_q: destination shape mismatch");
  QMCU_REQUIRE(out.params() == p, "pool_region_q: pools keep input params");
  for (int gy = out_region.y.begin; gy < out_region.y.end; ++gy) {
    for (int gx = out_region.x.begin; gx < out_region.x.end; ++gx) {
      for (int c = 0; c < have.shape().c; ++c) {
        std::int32_t best = std::numeric_limits<std::int32_t>::min();
        std::int32_t sum = 0;
        std::int32_t count = 0;
        for_each_valid(avail, l, gy, gx, full, [&](int y, int x) {
          const std::int32_t v = have.at(y, x, c);
          best = std::max(best, v);
          sum += v;
          ++count;
        });
        std::int32_t q;
        if (is_max) {
          q = best;
        } else {
          // Shared fixed-point mean: identical rounding to
          // nn::ops::avg_pool_q by construction.
          q = count > 0 ? avg->average(sum, count) : p.zero_point;
          q = std::clamp(q, p.qmin(), p.qmax());
        }
        out.at(gy - out_region.y.begin, gx - out_region.x.begin, c) =
            static_cast<std::int8_t>(q);
      }
    }
  }
}

nn::QTensor pool_region_q(const nn::QTensor& have, const Region& avail,
                          const nn::Layer& l, const Region& out_region,
                          const nn::TensorShape& full) {
  nn::QTensor out(nn::TensorShape{out_region.y.size(), out_region.x.size(),
                                  have.shape().c},
                  have.params());
  pool_region_q_into(have, avail, l, out_region, full, out);
  return out;
}

void merge_region_f32(const nn::Tensor& tile, const Region& r,
                      nn::Tensor& assembled) {
  const int c = assembled.shape().c;
  QMCU_REQUIRE(tile.shape() ==
                   nn::TensorShape(r.y.size(), r.x.size(), c),
               "merge_region_f32: tile does not cover its region");
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= assembled.shape().h &&
                   r.x.begin >= 0 && r.x.end <= assembled.shape().w,
               "merge_region_f32: region exceeds the assembled map");
  for (int y = r.y.begin; y < r.y.end; ++y) {
    for (int x = r.x.begin; x < r.x.end; ++x) {
      std::memcpy(
          assembled.data().data() + nn::flat_index(assembled.shape(), y, x, 0),
          tile.data().data() +
              nn::flat_index(tile.shape(), y - r.y.begin, x - r.x.begin, 0),
          static_cast<std::size_t>(c) * sizeof(float));
    }
  }
}

void merge_region_q(const nn::QTensor& tile, const Region& r,
                    nn::QTensor& assembled) {
  const nn::QuantParams& p = tile.params();
  const nn::QuantParams& t = assembled.params();
  const int c = assembled.shape().c;
  QMCU_REQUIRE(tile.shape() ==
                   nn::TensorShape(r.y.size(), r.x.size(), c),
               "merge_region_q: tile does not cover its region");
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= assembled.shape().h &&
                   r.x.begin >= 0 && r.x.end <= assembled.shape().w,
               "merge_region_q: region exceeds the assembled map");
  if (p == t) {
    for (int y = r.y.begin; y < r.y.end; ++y) {
      for (int x = r.x.begin; x < r.x.end; ++x) {
        std::memcpy(
            assembled.data().data() +
                nn::flat_index(assembled.shape(), y, x, 0),
            tile.data().data() +
                nn::flat_index(tile.shape(), y - r.y.begin, x - r.x.begin, 0),
            static_cast<std::size_t>(c));
      }
    }
    return;
  }
  // Mixed mode: rescale into the assembled map's params — the same values
  // a whole-tile requantize followed by a per-element scatter produces.
  const nn::ops::ElementRequantizer rq(static_cast<double>(p.scale) /
                                       static_cast<double>(t.scale));
  const std::int32_t qmin = t.qmin();
  const std::int32_t qmax = t.qmax();
  for (int y = r.y.begin; y < r.y.end; ++y) {
    for (int x = r.x.begin; x < r.x.end; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        const std::int32_t v =
            rq.apply(static_cast<std::int32_t>(
                         tile.at(y - r.y.begin, x - r.x.begin, ch)) -
                     p.zero_point) +
            t.zero_point;
        assembled.at(y, x, ch) =
            static_cast<std::int8_t>(std::clamp(v, qmin, qmax));
      }
    }
  }
}

bool merge_region_f32_changed(const nn::Tensor& tile, const Region& r,
                              nn::Tensor& assembled) {
  const int c = assembled.shape().c;
  QMCU_REQUIRE(tile.shape() ==
                   nn::TensorShape(r.y.size(), r.x.size(), c),
               "merge_region_f32: tile does not cover its region");
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= assembled.shape().h &&
                   r.x.begin >= 0 && r.x.end <= assembled.shape().w,
               "merge_region_f32: region exceeds the assembled map");
  // A region row is contiguous in both the tile and the assembled map.
  const std::size_t row_bytes = static_cast<std::size_t>(r.x.size()) *
                                static_cast<std::size_t>(c) * sizeof(float);
  bool changed = false;
  for (int y = r.y.begin; y < r.y.end; ++y) {
    float* dst =
        assembled.data().data() + nn::flat_index(assembled.shape(), y, r.x.begin, 0);
    const float* src =
        tile.data().data() + nn::flat_index(tile.shape(), y - r.y.begin, 0, 0);
    if (std::memcmp(dst, src, row_bytes) != 0) {
      std::memcpy(dst, src, row_bytes);
      changed = true;
    }
  }
  return changed;
}

bool merge_region_q_changed(const nn::QTensor& tile, const Region& r,
                            nn::QTensor& assembled) {
  const nn::QuantParams& p = tile.params();
  const nn::QuantParams& t = assembled.params();
  const int c = assembled.shape().c;
  QMCU_REQUIRE(tile.shape() ==
                   nn::TensorShape(r.y.size(), r.x.size(), c),
               "merge_region_q: tile does not cover its region");
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= assembled.shape().h &&
                   r.x.begin >= 0 && r.x.end <= assembled.shape().w,
               "merge_region_q: region exceeds the assembled map");
  bool changed = false;
  if (p == t) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(r.x.size()) * static_cast<std::size_t>(c);
    for (int y = r.y.begin; y < r.y.end; ++y) {
      std::int8_t* dst = assembled.data().data() +
                         nn::flat_index(assembled.shape(), y, r.x.begin, 0);
      const std::int8_t* src =
          tile.data().data() + nn::flat_index(tile.shape(), y - r.y.begin, 0, 0);
      if (std::memcmp(dst, src, row_bytes) != 0) {
        std::memcpy(dst, src, row_bytes);
        changed = true;
      }
    }
    return changed;
  }
  const nn::ops::ElementRequantizer rq(static_cast<double>(p.scale) /
                                       static_cast<double>(t.scale));
  const std::int32_t qmin = t.qmin();
  const std::int32_t qmax = t.qmax();
  for (int y = r.y.begin; y < r.y.end; ++y) {
    for (int x = r.x.begin; x < r.x.end; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        const std::int32_t v =
            rq.apply(static_cast<std::int32_t>(
                         tile.at(y - r.y.begin, x - r.x.begin, ch)) -
                     p.zero_point) +
            t.zero_point;
        const std::int8_t q =
            static_cast<std::int8_t>(std::clamp(v, qmin, qmax));
        std::int8_t& slot = assembled.at(y, x, ch);
        if (slot != q) {
          slot = q;
          changed = true;
        }
      }
    }
  }
  return changed;
}

}  // namespace qmcu::patch
