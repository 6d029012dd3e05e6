#pragma once
// The benchmark's own arithmetic, kept apart from anything that measures so
// selftest.cpp can check it on synthetic data: exact percentiles, the
// "highest percentile with >= 10 samples beyond it" tail, the reference
// normalisation behind every *_rel metric, and the metric schema that
// BENCHMARK.json mirrors.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

// One order statistic of a sample set: the value, the sample count, and how
// many samples lie strictly beyond its rank.
struct quantile {
  double value = NAN;
  double q = NAN;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

// Nearest-rank percentile: the smallest sample with at least q*n samples at
// or below it.
inline quantile nearest_rank(std::vector<double> v, double q) {
  quantile r;
  r.n = v.size();
  r.q = q;
  if (v.empty()) return r;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * r.n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, r.n);
  r.value = v[rank - 1];
  r.beyond = r.n - rank;
  return r;
}

inline double median(const std::vector<double>& v) {
  return nearest_rank(v, 0.5).value;
}

// The highest of p50, p90, p99, p99.9 that still has at least `min_beyond`
// samples beyond it. The choice stays put while the sample count moves
// within a decade, so a run that fits a few more reps reads the same
// percentile. NaN when even p50 lacks them.
inline quantile tail(const std::vector<double>& v,
                     std::size_t min_beyond = 10) {
  quantile best;
  best.n = v.size();
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const quantile r = nearest_rank(v, q);
    if (r.beyond < min_beyond) break;
    best = r;
  }
  return best;
}

// The *_rel normalisation: median rep time over the median of the
// reference measurements interleaved with the reps. A slowdown of the box
// that hits reps and references alike cancels; a reference outlier moves
// only its own rank.
inline double rel(const std::vector<double>& reps,
                  const std::vector<double>& refs) {
  return median(reps) / median(refs);
}

// --- metric schema ----------------------------------------------------------

enum class layer { end_to_end, per_layer };

struct metric_def {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  layer kind;
  double bound;  // end_to_end only: allowed worsening of the median
};

// Every metric the driver prints, in BENCHMARK.json order: every workload
// reports all end-to-end metrics untraced and all per-layer metrics traced.
// run.py --selftest checks that BENCHMARK.json lists exactly these.
inline const std::vector<metric_def>& schema() {
  static const std::vector<metric_def> defs = {
      {"setup_s", "s", "lower", layer::end_to_end, 0.25},
      {"peak_rss_mb", "MB", "lower", layer::end_to_end, 0.1},
      {"t1_rel", "ratio", "lower", layer::end_to_end, 0.25},
      {"tp_rel", "ratio", "lower", layer::end_to_end, 0.2},
      {"tp_cpu_rel", "ratio", "lower", layer::end_to_end, 0.15},

      {"counter.arrive_depart_ns", "ns", "lower", layer::per_layer, 0},
      {"counter.add_k_ns_per_edge", "ns", "lower", layer::per_layer, 0},
      {"dag.spawn_signal_ns", "ns", "lower", layer::per_layer, 0},
      {"mem.alloc_free_ns", "ns", "lower", layer::per_layer, 0},
      {"mem.remote_free_ns", "ns", "lower", layer::per_layer, 0},
      {"mem.epoch_pin_ns", "ns", "lower", layer::per_layer, 0},
      {"outset.add_ns", "ns", "lower", layer::per_layer, 0},
      {"outset.finalize_ns_per_waiter", "ns", "lower", layer::per_layer, 0},
      {"sched.deque_push_pop_ns", "ns", "lower", layer::per_layer, 0},
      {"sched.deque_steal_ns", "ns", "lower", layer::per_layer, 0},
      {"service.mpmc_push_pop_ns", "ns", "lower", layer::per_layer, 0},
      {"service.submit_ns", "ns", "lower", layer::per_layer, 0},
      {"obs.trace_hook_off_ns", "ns", "lower", layer::per_layer, 0},
      {"dag.counter_ops_per_edge", "ratio", "lower", layer::per_layer, 0},
      {"dag.vertices_per_task", "count", "lower", layer::per_layer, 0},
      {"snzi.node_ops_per_task", "count", "lower", layer::per_layer, 0},
      {"snzi.cas_failures_per_ktask", "count", "lower", layer::per_layer, 0},
      {"snzi.grow_calls_per_ktask", "count", "lower", layer::per_layer, 0},
      {"sched.steals_per_ktask", "count", "lower", layer::per_layer, 0},
      {"sched.failed_sweeps_per_ktask", "count", "lower", layer::per_layer, 0},
      {"sched.parks_per_ktask", "count", "lower", layer::per_layer, 0},
      {"mem.slab_growths_measured", "count", "lower", layer::per_layer, 0},
      {"mem.remote_free_frac", "ratio", "lower", layer::per_layer, 0},
      {"mem.retained_mb", "MB", "lower", layer::per_layer, 0},
      {"outset.adds_per_task", "count", "lower", layer::per_layer, 0},
      {"outset.group_adds_per_task", "count", "higher", layer::per_layer, 0},
      {"outset.add_cas_retries_per_kadd", "count", "lower", layer::per_layer,
       0},
      {"decompose.unattributed_frac", "ratio", "lower", layer::per_layer, 0},
      {"obs.bench_trace_overhead_frac", "ratio", "lower", layer::per_layer, 0},
      {"tp_tail_rel", "ratio", "lower", layer::per_layer, 0},
  };
  return defs;
}

// The name/unit rules BENCHMARK.json imposes.
inline bool valid_name(const std::string& s) {
  if (s.empty() || s.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(s[0])))
    return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-')
      return false;
  }
  return true;
}

inline bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        std::strchr("_/%.-", c) == nullptr)
      return false;
  }
  return true;
}

}  // namespace perfbench
