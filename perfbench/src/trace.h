// trace.h — in-memory spans recorded around the benchmark's calls into the
// library, written out once at the end as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// The process-wide time origin of every span and schedule.
inline Clock::time_point epoch() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch())
      .count();
}

inline Clock::time_point at_ns(std::int64_t ns) {
  return epoch() + std::chrono::nanoseconds(ns);
}

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;        // index of the causing span, -1 for a root
  std::int64_t req = -1;  // request / frame / repetition id
  int tid = 0;
};

class Tracer {
 public:
  // Reserves a span slot so children can name it as parent before its end
  // is known; fill() completes it.
  int reserve() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.emplace_back();
    return static_cast<int>(spans_.size() - 1);
  }

  void fill(int id, const char* name, std::int64_t start, std::int64_t end,
            int parent = -1, std::int64_t req = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)] =
        Span{name, start, end, parent, req, tid_locked()};
  }

  int add(const char* name, std::int64_t start, std::int64_t end,
          int parent = -1, std::int64_t req = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, req, tid_locked()});
    return static_cast<int>(spans_.size() - 1);
  }

  // Snapshot (call once recording threads are quiet).
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Self time per span, in the span list's order.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    const std::vector<Span> all = spans();
    std::vector<SpanTimes> t;
    t.reserve(all.size());
    for (const Span& s : all) t.push_back({s.start, s.end, s.parent});
    return self_times(t);
  }

  // Chrome trace-event JSON: one complete ("X") event per span, with the
  // span id, parent, request id and self time in args. Returns false when
  // the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = self_ns();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%lld,\"self_us\":%.3f}}%s\n",
                   s.name, s.tid, static_cast<double>(s.start) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                   static_cast<long long>(s.req),
                   static_cast<double>(self[i]) / 1e3,
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int tid_locked() {
    return tids_
        .try_emplace(std::this_thread::get_id(),
                     static_cast<int>(tids_.size()))
        .first->second;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, int> tids_;
};

}  // namespace perfbench
