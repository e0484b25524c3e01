// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload serve|stream|deploy --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints a human-readable metric table and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any output mismatched its reference or a self-check failed,
// 2 on a usage or set-up error (no JSON line then).
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

void print_json(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: tensors of 128 KiB and up (frames, images,
  // arenas) are mapped and unmapped directly instead of glibc raising the
  // threshold at run time and recycling them through per-thread heaps,
  // whose fragmentation made peak RSS vary by half between runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || o.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|stream|deploy --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  try {
    const perfbench::Report r = perfbench::run_benchmark(o);
    for (const perfbench::Metric& m : r.metrics) {
      std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("attempted %lld, failed %lld, outputs %s\n",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed),
                r.correct ? "correct" : "INCORRECT");
    print_json(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
