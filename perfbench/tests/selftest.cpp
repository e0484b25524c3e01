// selftest — tests of the benchmark's own helpers: the percentile rule,
// span self time and the output oracle.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "oracle.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

// Samples 1..n, so the value at a rank is the rank itself.
std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

int beyond(const std::vector<double>& v, double x) {
  int n = 0;
  for (double s : v) n += s > x ? 1 : 0;
  return n;
}

void percentile_rule() {
  check(perfbench::median(ramp(5)) == 3.0, "median, odd count");
  check(perfbench::median(ramp(4)) == 2.5, "median, even count");
  // p99 needs 1000 samples: exactly 10 lie beyond it.
  check(perfbench::tail_quantile(1000) == 0.99, "p99 at n = 1000");
  check(perfbench::tail(ramp(1000)) == 990.0, "p99 value at n = 1000");
  check(beyond(ramp(1000), perfbench::tail(ramp(1000))) == 10,
        "10 samples beyond p99 at n = 1000");
  // Fewer samples: the highest percentile still leaving 10 beyond it.
  check(std::fabs(perfbench::tail_quantile(500) - 0.98) < 1e-12,
        "p98 at n = 500");
  check(beyond(ramp(500), perfbench::tail(ramp(500))) == 10,
        "10 samples beyond the tail at n = 500");
  check(beyond(ramp(37), perfbench::tail(ramp(37))) == 10,
        "10 samples beyond the tail at n = 37");
  // More samples: capped at p99, so at least 10 beyond.
  check(perfbench::tail_quantile(5000) == 0.99, "capped at p99");
  check(beyond(ramp(5000), perfbench::tail(ramp(5000))) == 50,
        "50 samples beyond p99 at n = 5000");
  // Too few for any tail: the median.
  check(perfbench::tail(ramp(20)) == perfbench::median(ramp(20)),
        "median below 21 samples");
}

void self_time() {
  using perfbench::SpanTimes;
  // Root [0, 100]; children [10, 30] and [20, 50] overlap (parallel
  // work, union 40); a grandchild [12, 15] does not count against the
  // root; a child running past its parent is clipped to [90, 100].
  const std::vector<SpanTimes> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {12, 15, 1}, {90, 120, 0}};
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  check(self[0] == 100 - 40 - 10, "root self time");
  check(self[1] == 20 - 3, "child self time");
  check(self[2] == 30, "leaf self time");
  check(self[3] == 3, "grandchild self time");
}

void oracle() {
  using qmcu::nn::QTensor;
  QTensor t(qmcu::nn::TensorShape(1, 1, 64), qmcu::nn::QuantParams{0.5f, 3, 8});
  for (std::size_t i = 0; i < t.data().size(); ++i) {
    t.data()[i] = static_cast<std::int8_t>(i * 7);
  }
  const perfbench::Expected e = perfbench::expect(t);
  check(perfbench::matches(t, e), "oracle accepts the reference");
  for (std::size_t i = 0; i < t.data().size(); ++i) {
    QTensor bad = t;
    bad.data()[i] ^= 0x01;
    check(!perfbench::matches(bad, e), "oracle rejects a flipped byte");
  }
  QTensor other(qmcu::nn::TensorShape(1, 1, 64),
                qmcu::nn::QuantParams{0.25f, 3, 8});
  std::copy(t.data().begin(), t.data().end(), other.data().begin());
  check(!perfbench::matches(other, e), "oracle rejects other params");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  oracle();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
