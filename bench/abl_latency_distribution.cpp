// Ablation A4: per-operation latency distributions.
//
// The paper's contention definition counts concurrent non-trivial steps on
// one location; at runtime that cost surfaces as a fat tail in per-op
// latency (CAS retry loops + cache-line ping-pong). This bench runs the
// fanin workload with a timing decorator around the dependency counter and
// reports mean / p50 / p99 / p99.9 arrive latencies plus max-bin counts,
// per algorithm.
//
// Expected shape: on a contended multicore run, Fetch & Add's p99 blows up
// with core count while the in-counter's stays near its uncontended mode;
// at 1 core all tails are thin and FAA's mean is lowest.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dag/engine.hpp"
#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "incounter/timed_factory.hpp"
#include "sched/runtime.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace spdag;

void fanin_body(std::uint64_t n) {
  struct rec {
    static void go(std::uint64_t m) {
      if (m >= 2) {
        fork2([m] { go(m / 2); }, [m] { go(m - m / 2); });
      }
    }
  };
  finish_then([n] { rec::go(n); }, [] {});
}

}  // namespace

int main(int argc, char** argv) {
  options opts(argc, argv);
  harness::json_open(opts, "abl_latency_distribution");
  const std::uint64_t n = static_cast<std::uint64_t>(opts.get_int("n", 1 << 15));
  const std::size_t procs = static_cast<std::size_t>(opts.get_int("proc", 2));
  const bool csv = opts.get_bool("csv", false);

  const std::vector<std::string> algos{"faa", "snzi:4", "dyn"};

  std::printf("# abl_latency_distribution: fanin n=%llu at proc=%zu; arrive "
              "latency percentiles per counter (ns, bin-granular)\n",
              static_cast<unsigned long long>(n), procs);

  result_table table({"algo", "ops", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
                      "p99.9_ns", "max_ns"});
  for (const auto& algo : algos) {
    latency_histogram arrives, departs;
    timed_factory factory(make_counter_factory(algo), &arrives, &departs);
    auto sched = make_scheduler("ws", procs);
    dag_engine engine(factory, *sched);

    auto once = [&] {
      auto [root, final_v] = engine.make();
      root->body = [n] { fanin_body(n); };
      sched->run(engine, root, final_v);
    };
    once();  // warm-up
    arrives.reset();
    departs.reset();
    once();

    table.add_row({algo, std::to_string(arrives.count()),
                   result_table::num(arrives.mean_ns(), 1),
                   std::to_string(arrives.percentile_ns(0.50)),
                   std::to_string(arrives.percentile_ns(0.95)),
                   std::to_string(arrives.percentile_ns(0.99)),
                   std::to_string(arrives.percentile_ns(0.999)),
                   std::to_string(arrives.percentile_ns(1.0))});
    if (harness::json_enabled()) {
      harness::json_record rec;
      rec.name = "abl_latency_distribution/";
      rec.name += algo;
      rec.spec = algo;
      rec.proc = procs;
      // Top-level percentile fields (ms) for schema-level consumers; the
      // ns-granular extras stay for the ablation's own analysis.
      rec.lat_p50_ms = static_cast<double>(arrives.percentile_ns(0.50)) * 1e-6;
      rec.lat_p95_ms = static_cast<double>(arrives.percentile_ns(0.95)) * 1e-6;
      rec.lat_p99_ms = static_cast<double>(arrives.percentile_ns(0.99)) * 1e-6;
      rec.extra.emplace_back("arrive_mean_ns", arrives.mean_ns());
      rec.extra.emplace_back(
          "arrive_p50_ns",
          static_cast<double>(arrives.percentile_ns(0.50)));
      rec.extra.emplace_back(
          "arrive_p95_ns",
          static_cast<double>(arrives.percentile_ns(0.95)));
      rec.extra.emplace_back(
          "arrive_p99_ns",
          static_cast<double>(arrives.percentile_ns(0.99)));
      rec.extra.emplace_back(
          "arrive_max_ns", static_cast<double>(arrives.percentile_ns(1.0)));
      harness::json_add(std::move(rec));
    }
  }
  table.print(std::cout);
  if (csv) table.print_csv(std::cout);
  return harness::json_write();
}
