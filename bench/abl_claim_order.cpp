// Ablation A2: the decrement-handle claim-order design choice.
//
// The paper orders each handle pair [higher-in-tree, lower-in-tree] and has
// the first claimer take the higher one — the invariant behind Lemma 4.6
// ("priority should be given to decrementing nodes closer to the root").
// This bench compares:
//   ordered     the paper's policy (reclamation on, the default)
//   ordered-nr  the paper's policy with reclamation off (isolates the
//               reclamation effect from the ordering effect)
//   random-nr   first claimer takes a random slot (reclamation must be off:
//               randomizing voids Lemma 4.6, making node recycling unsound —
//               itself a reproduction of why the invariant matters)
//
// Expected shape: ordered >= random on throughput (more phase changes climb
// further when low nodes drain first), and ordered-with-reclaim stays flat
// on memory where the others grow.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "sched/runtime.hpp"
#include "snzi/stats.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace spdag;
  options opts(argc, argv);
  harness::json_open(opts, "abl_claim_order");
  const std::uint64_t n = static_cast<std::uint64_t>(opts.get_int("n", 1 << 16));
  const std::size_t procs = static_cast<std::size_t>(opts.get_int("proc", 2));
  const int runs = static_cast<int>(opts.get_int("runs", 3));
  const bool csv = opts.get_bool("csv", false);

  struct policy {
    std::string label;
    std::string counter;
    bool randomize;
  };
  const std::vector<policy> policies{
      {"ordered", "dyn:1", false},
      {"ordered-nr", "dyn:1:noreclaim", false},
      {"random-nr", "dyn:1:noreclaim", true},
  };

  std::printf("# abl_claim_order: fanin n=%llu at proc=%zu, threshold 1\n",
              static_cast<unsigned long long>(n), procs);

  result_table table({"policy", "mean_s", "ops/s/core", "depart_hops/op",
                      "pair_allocs"});
  for (const policy& p : policies) {
    snzi::tree_stats stats;
    runtime_config cfg{procs, p.counter, &stats};
    cfg.engine_options.randomize_claim_order = p.randomize;
    runtime rt(cfg);
    harness::fanin(rt, n);  // warm-up
    stats.reset();
    run_stats times;
    for (int r = 0; r < runs; ++r) {
      wall_timer t;
      harness::fanin(rt, n);
      times.add(t.elapsed_s());
    }
    const double ops = static_cast<double>(harness::counter_ops(n));
    const double departs = static_cast<double>(stats.departs.load()) +
                           static_cast<double>(stats.root_departs.load());
    const double dec_ops =
        static_cast<double>(rt.engine().stats().signals.load());
    table.add_row(
        {p.label, result_table::num(times.mean(), 4),
         result_table::num(ops / times.mean() / static_cast<double>(procs), 0),
         result_table::num(dec_ops > 0 ? departs / dec_ops : 0, 3),
         std::to_string(stats.grow_allocs.load())});
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = "abl_claim_order/";
      rec.name += p.label;
      rec.spec = p.counter;
      rec.proc = procs;
      rec.runs = runs;
      rec.wall_s = times.mean();
      rec.ops_per_s = times.mean() > 0 ? ops / times.mean() : 0.0;
      rec.extra.emplace_back("depart_hops_per_op",
                             dec_ops > 0 ? departs / dec_ops : 0.0);
      rec.extra.emplace_back("pair_allocs",
                             static_cast<double>(stats.grow_allocs.load()));
      harness::json_add(std::move(rec));
    }
  }
  table.print(std::cout);
  if (csv) table.print_csv(std::cout);
  return harness::json_write();
}
