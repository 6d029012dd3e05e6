// Figure 13 (appendix C.2): the NUMA-policy study, SUBSTITUTED.
//
// The paper reruns Figure 8 under two NUMA page policies (round-robin
// interleaving vs first-touch) and finds "no significant effect". This
// container has a single memory domain, so the same knob is unavailable;
// what the NUMA policy actually varies is *where counter nodes live relative
// to the workers touching them* and how allocation requests batch. We turn
// the nearest available knob with the same mechanism: the slab block size
// of the pool registry that in-counter nodes (and vertices/dec-pairs) are
// carved from — tiny blocks force frequent upstream allocations (the
// "remote/unbatched" end), large blocks amortize them (the "local/batched"
// end). The paper-shaped claim to check is the same: allocation placement
// policy does not significantly move fanin throughput. This header is the
// record of the substitution.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "incounter/factory.hpp"
#include "dag/engine.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace spdag;

void register_config(std::size_t block_bytes, std::size_t workers,
                     std::uint64_t n, int runs) {
  const std::string name = "fig13/fanin/dyn/block:" + std::to_string(block_bytes) +
                           "/proc:" + std::to_string(workers);
  benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& st) {
    slab_pool_registry pools(block_bytes);
    incounter_config cfg;
    cfg.grow_threshold = 100;
    incounter_factory factory(cfg, &pools);
    scheduler sched(scheduler_config{workers});
    dag_engine engine(factory, sched, {.pools = &pools});

    auto once = [&] {
      auto [root, final_v] = engine.make();
      root->body = [n] {
        finish_then([n] {
          struct rec {
            static void go(std::uint64_t m) {
              if (m >= 2) {
                fork2([m] { go(m / 2); }, [m] { go(m - m / 2); });
              }
            }
          };
          rec::go(n);
        }, [] {});
      };
      sched.run(engine, root, final_v);
    };
    once();
    double wall_sum_s = 0;
    for (auto _ : st) {
      wall_timer t;
      once();
      const double el = t.elapsed_s();
      st.SetIterationTime(el);
      wall_sum_s += el;
    }
    const double ops = static_cast<double>(harness::counter_ops(n));
    st.counters["ops/s/core"] = benchmark::Counter(
        ops / static_cast<double>(workers),
        benchmark::Counter::kIsIterationInvariantRate);
    harness::json_add_rate(name, pools.spec(), workers, runs, ops, wall_sum_s,
                           static_cast<double>(st.iterations()));
  })
      ->UseManualTime()
      ->Iterations(runs);
}

}  // namespace

int main(int argc, char** argv) {
  options opts(argc, argv);
  const auto common = harness::read_common(opts, /*default_n=*/1 << 17);
  harness::json_open(opts, "fig13_numa_policy");

  // Allocation-batching extremes plus the default.
  const std::vector<std::size_t> block_sizes{1 << 12, 1 << 16, 1 << 20};

  for (std::size_t block : block_sizes) {
    for (std::size_t p : harness::worker_sweep(common.max_proc, /*points=*/4)) {
      register_config(block, p, common.n, common.runs);
    }
  }

  std::printf("# fig13 (substituted): allocation-policy ablation for the NUMA "
              "study; expect no significant throughput difference across "
              "slab block sizes (paper: no significant NUMA effect)\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness::json_write();
}
