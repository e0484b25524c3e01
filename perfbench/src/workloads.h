// workloads.h — the benchmark's three workloads over the paper's headline
// deployment (MobileNetV2 w0.35 @ 144 px, QuantMCU plan for the Arduino
// Nano 33 BLE Sense, served from a QMCP artifact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;  // serve | stream | deploy
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

// Runs one workload. With trace off the report holds the end-to-end
// metrics; with trace on it holds the per-layer metrics of a separate
// traced run (see workloads.cpp). Throws on set-up errors.
Report run_benchmark(const Options& opts);

}  // namespace perfbench
