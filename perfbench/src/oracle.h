// oracle.h — reference outputs the benchmark checks every served output
// against, and their on-disk form (the reference is computed in a separate
// set-up process, see workloads.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/quant_params.h"
#include "nn/shape.h"
#include "nn/tensor.h"

namespace perfbench {

// One reference output: shape, quantization parameters and bytes.
struct Expected {
  qmcu::nn::TensorShape shape;
  qmcu::nn::QuantParams params;
  std::vector<std::int8_t> bytes;
};

inline Expected expect(const qmcu::nn::QTensor& t) {
  Expected e;
  e.shape = t.shape();
  e.params = t.params();
  e.bytes.assign(t.data().begin(), t.data().end());
  return e;
}

// Bit-exact comparison: any differing byte, shape or parameter fails.
inline bool matches(const qmcu::nn::QTensor& out, const Expected& e) {
  return out.shape() == e.shape && out.params() == e.params &&
         out.data().size() == e.bytes.size() &&
         std::memcmp(out.data().data(), e.bytes.data(), e.bytes.size()) == 0;
}

inline bool write_expected(std::FILE* f, const Expected& e) {
  const std::uint64_t n = e.bytes.size();
  return std::fwrite(&e.shape, sizeof e.shape, 1, f) == 1 &&
         std::fwrite(&e.params, sizeof e.params, 1, f) == 1 &&
         std::fwrite(&n, sizeof n, 1, f) == 1 &&
         std::fwrite(e.bytes.data(), 1, e.bytes.size(), f) == e.bytes.size();
}

inline bool read_expected(std::FILE* f, Expected& e) {
  std::uint64_t n = 0;
  if (std::fread(&e.shape, sizeof e.shape, 1, f) != 1 ||
      std::fread(&e.params, sizeof e.params, 1, f) != 1 ||
      std::fread(&n, sizeof n, 1, f) != 1 || n > (std::uint64_t{1} << 30)) {
    return false;
  }
  e.bytes.resize(static_cast<std::size_t>(n));
  return std::fread(e.bytes.data(), 1, e.bytes.size(), f) == e.bytes.size();
}

}  // namespace perfbench
