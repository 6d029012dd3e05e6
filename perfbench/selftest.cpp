// Self-test of the benchmark's own arithmetic (stats.hpp), on synthetic
// data with known answers. Exits nonzero on the first wrong answer.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b, double rel = 1e-12) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles() {
  using perfbench::nearest_rank;
  const auto p50 = nearest_rank(one_to(100), 0.5);
  check(p50.value == 50 && p50.beyond == 50 && p50.n == 100,
        "nearest-rank p50 of 1..100 is 50 with 50 beyond");
  const auto p99 = nearest_rank(one_to(1000), 0.99);
  check(p99.value == 990 && p99.beyond == 10,
        "nearest-rank p99 of 1..1000 is 990 with 10 beyond");
  check(nearest_rank(one_to(3), 0.5).value == 2, "median of 3 samples");
  check(std::isnan(nearest_rank({}, 0.5).value), "no samples: NaN");

  const auto t = perfbench::tail(one_to(100));
  check(t.value == 90 && t.beyond == 10 && near(t.q, 0.9),
        "tail of 100 samples is p90, which has exactly 10 beyond");
  const auto t99 = perfbench::tail(one_to(99));
  check(near(t99.q, 0.5) && t99.beyond >= 10,
        "tail of 99 samples falls back to p50: p90 has only 9 beyond");
  check(near(perfbench::tail(one_to(999)).q, 0.9) &&
            near(perfbench::tail(one_to(1000)).q, 0.99),
        "p99 is chosen from 1000 samples on");
  check(near(perfbench::tail(one_to(20)).q, 0.5),
        "tail of 20 samples is the median");
  check(std::isnan(perfbench::tail(one_to(19)).value),
        "tail of 19 samples: no ladder percentile has 10 beyond");
}

void normalisation() {
  check(near(perfbench::rel({6, 6, 6}, {2, 2, 2}), 3.0),
        "median rep / median reference");
  // A box that slows reps and references by the same factor leaves the
  // ratio alone.
  check(near(perfbench::rel({6 * 1.7, 6 * 1.7}, {2 * 1.7, 2 * 1.7}), 3.0),
        "uniform slowdown cancels");
  // One disturbed reference moves only its own rank, not the ratio.
  check(near(perfbench::rel({6, 6, 6}, {2, 2, 9}), 3.0),
        "a reference outlier does not move the ratio");
  check(near(perfbench::rel({5, 6, 60}, {2, 2, 2}), 3.0),
        "a rep outlier does not move the ratio");
}

void schema() {
  std::set<std::string> names;
  bool ok = true, setup = false;
  for (const auto& d : perfbench::schema()) {
    ok = ok && perfbench::valid_name(d.name) && perfbench::valid_unit(d.unit);
    ok = ok && names.insert(d.name).second;
    ok = ok && (std::string(d.better) == "lower" ||
                std::string(d.better) == "higher");
    if (d.kind == perfbench::layer::end_to_end)
      ok = ok && d.bound > 0 && d.bound <= 0.25;
    if (std::string(d.name) == "setup_s")
      setup = d.kind == perfbench::layer::end_to_end &&
              std::string(d.unit) == "s" && std::string(d.better) == "lower";
  }
  check(ok, "names, units, directions and bounds follow the schema rules");
  check(setup, "setup_s is end-to-end, in s, lower is better");
  check(!perfbench::valid_name("_x") && !perfbench::valid_name("a b") &&
            !perfbench::valid_unit("m s") && perfbench::valid_unit("subs/s"),
        "the name/unit validators reject what the schema forbids");
}

}  // namespace

int main() {
  percentiles();
  normalisation();
  schema();
  std::printf("%s\n", failures == 0 ? "selftest: ok" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
