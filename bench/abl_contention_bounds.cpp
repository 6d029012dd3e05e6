// Ablation A1: instrumented verification of the analysis section's bounds
// (section 4 of the paper).
//
// Two measurements per grow threshold:
//   1. A full parallel fanin run reporting amortized ratios:
//      arrives per increment (Corollary 4.7: <= 3 when threshold = 1) and
//      CAS failures per operation (the direct contention signal), plus
//      allocation counts (appendix B: flat when reclaiming).
//   2. A deterministic breadth-first spawn expansion on a standalone
//      instrumented in-counter, reporting the maximum number of operations
//      that touched any single SNZI node (Theorem 4.9 proof: <= 6 when
//      threshold = 1; grows with the threshold as more operations share
//      nodes — exactly the contention/space trade the grow probability
//      buys).
//
// This is the experiment the paper could only argue on paper; the
// instrumentation makes the proved constants observable.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "incounter/incounter.hpp"
#include "sched/runtime.hpp"
#include "snzi/stats.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace spdag;

// Valid sp-dag-style execution: BFS spawn expansion then disciplined drain.
// Returns the max per-node op count observed by the instrumentation.
std::uint32_t max_node_ops_for(std::uint64_t threshold, int generations) {
  snzi::tree_stats stats;
  incounter ic(1, incounter_config{threshold, /*reclaim=*/false, &stats});
  struct live {
    token inc;
    token dec;
    bool left;
  };
  std::vector<live> frontier{{ic.root_token(), ic.root_token(), true}};
  for (int gen = 0; gen < generations; ++gen) {
    std::vector<live> next;
    next.reserve(frontier.size() * 2);
    for (const live& v : frontier) {
      const arrive_result r = ic.arrive(v.inc, v.left);
      next.push_back({r.inc_left, v.dec, true});
      next.push_back({r.inc_right, r.dec, false});
    }
    frontier = std::move(next);
  }
  for (auto it = frontier.rbegin(); it != frontier.rend(); ++it) {
    ic.depart(it->dec);
  }
  std::uint32_t m = ic.tree().max_node_ops();
  // The root is touched once per base phase change; include it.
  return std::max(m, ic.tree().root()->ops());
}

}  // namespace

int main(int argc, char** argv) {
  options opts(argc, argv);
  harness::json_open(opts, "abl_contention_bounds");
  const std::uint64_t n = static_cast<std::uint64_t>(opts.get_int("n", 1 << 15));
  const std::size_t procs = static_cast<std::size_t>(opts.get_int("proc", 2));
  const bool csv = opts.get_bool("csv", false);
  const int generations = static_cast<int>(opts.get_int("gens", 10));

  const std::vector<std::uint64_t> thresholds{1, 4, 32, 256, 4096};

  std::printf("# abl_contention_bounds: fanin n=%llu at proc=%zu + BFS depth "
              "%d; bounds proved for threshold 1: arrives/incr <= 3, "
              "max_ops/node <= 6\n",
              static_cast<unsigned long long>(n), procs, generations);

  result_table table({"threshold", "arrives/incr", "max_ops/node",
                      "cas_fail/op", "undo_departs", "pair_allocs",
                      "pair_reuses"});
  for (std::uint64_t t : thresholds) {
    snzi::tree_stats stats;
    runtime rt(runtime_config{procs, "dyn:" + std::to_string(t), &stats});
    harness::fanin(rt, n);

    const double increments =
        static_cast<double>(rt.engine().stats().spawns.load());
    const double arrives = static_cast<double>(stats.arrives.load()) +
                           static_cast<double>(stats.root_arrives.load());
    const double departs = static_cast<double>(stats.departs.load()) +
                           static_cast<double>(stats.root_departs.load());
    const double cas_fail = static_cast<double>(stats.cas_failures.load());

    const std::uint32_t max_ops = max_node_ops_for(t, generations);
    table.add_row({std::to_string(t),
                   result_table::num(arrives / increments, 3),
                   std::to_string(max_ops),
                   result_table::num(cas_fail / (arrives + departs), 5),
                   std::to_string(stats.undo_departs.load()),
                   std::to_string(stats.grow_allocs.load()),
                   std::to_string(stats.grow_reuses.load())});
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = "abl_contention_bounds/threshold:";
      rec.name += std::to_string(t);
      rec.spec = "dyn:";
      rec.spec += std::to_string(t);
      rec.proc = procs;
      rec.extra.emplace_back("arrives_per_incr", arrives / increments);
      rec.extra.emplace_back("max_ops_per_node", static_cast<double>(max_ops));
      rec.extra.emplace_back("cas_fail_per_op",
                             cas_fail / (arrives + departs));
      rec.extra.emplace_back(
          "pair_allocs", static_cast<double>(stats.grow_allocs.load()));
      harness::json_add(std::move(rec));
    }
  }
  table.print(std::cout);
  if (csv) table.print_csv(std::cout);
  return harness::json_write();
}
