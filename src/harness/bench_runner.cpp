#include "harness/bench_runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "harness/workloads.hpp"
#include "sched/runtime.hpp"
#include "util/timer.hpp"
#include "util/topology.hpp"

namespace spdag::harness {

bench_result run_config(const bench_config& cfg) {
  runtime_config rt_cfg{cfg.workers, cfg.algo, /*snzi_stats=*/nullptr};
  rt_cfg.alloc = cfg.alloc;
  runtime rt(rt_cfg);
  auto once = [&] {
    if (cfg.workload == "fanin") {
      fanin(rt, cfg.n, cfg.work_ns, cfg.batch);
    } else if (cfg.workload == "indegree2") {
      indegree2(rt, cfg.n, cfg.work_ns);
    } else if (cfg.workload == "fib") {
      fib(rt, static_cast<unsigned>(cfg.n));
    } else if (cfg.workload == "churn") {
      future_churn(rt, cfg.n, cfg.work_ns);
    } else {
      throw std::invalid_argument("unknown workload: " + cfg.workload);
    }
  };

  // One untimed warm-up populates the object pools and the page cache so the
  // measured runs see steady state (the paper's artifact averages 30 runs
  // for the same reason).
  once();
  const std::uint64_t warm_growths = rt.pools().totals().slab_growths;
  // Scope the utilization summary to the measured window (reset is safe
  // under the runtime's idle-parked workers; see obs/trace.hpp).
  obs::tracer::instance().reset();

  run_stats stats;
  for (int r = 0; r < cfg.repetitions; ++r) {
    wall_timer t;
    once();
    stats.add(t.elapsed_s());
  }

  bench_result res;
  res.cfg = cfg;
  res.mean_s = stats.mean();
  res.min_s = stats.min();
  res.max_s = stats.max();
  res.rsd = stats.rsd();
  const double ops = static_cast<double>(
      cfg.workload == "churn" ? churn_futures(cfg.n) : counter_ops(cfg.n));
  res.ops_per_s = res.mean_s > 0 ? ops / res.mean_s : 0;
  res.ops_per_s_per_core = res.ops_per_s / static_cast<double>(cfg.workers);
  res.pools = rt.pools().rows();
  res.measured_slab_growths =
      rt.pools().totals().slab_growths - warm_growths;
  res.outsets = rt.outsets().totals();
  res.sched = rt.sched().totals();

  // Benches built on run_config get telemetry for free: one JSON record per
  // configuration when a -json sink is open.
  if (json_enabled()) {
    json_record rec;
    // Appends, not one operator+ chain (gcc 12 -Wrestrict, PR 105651).
    rec.name = cfg.workload;
    rec.name += "/";
    rec.name += cfg.algo;
    rec.name += "/alloc:";
    rec.name += cfg.alloc;
    rec.name += "/proc:";
    rec.name += std::to_string(cfg.workers);
    if (cfg.batch) rec.name += "/batch";
    rec.spec = cfg.algo;
    rec.proc = cfg.workers;
    rec.runs = cfg.repetitions;
    rec.ops_per_s = res.ops_per_s;
    rec.wall_s = res.mean_s;
    rec.pools = res.pools;
    rec.pool_totals = rt.pools().totals();
    rec.outsets = res.outsets;
    rec.sched_totals = res.sched;
    rec.extra.emplace_back("ops_per_s_per_core", res.ops_per_s_per_core);
    rec.extra.emplace_back("rsd", res.rsd);
    rec.extra.emplace_back("measured_slab_growths",
                           static_cast<double>(res.measured_slab_growths));
    // Amortization ledger over the whole config (warm-up included; the
    // ratio is scale-free): == 1.0 on unbatched runs, < 1.0 whenever
    // spawn_batch covered several edges with one increment.
    const engine_stats& es = rt.engine().stats();
    const double edges =
        static_cast<double>(es.edges.load(std::memory_order_relaxed));
    const double cops = static_cast<double>(
        es.counter_incs.load(std::memory_order_relaxed) +
        es.counter_decs.load(std::memory_order_relaxed));
    rec.extra.emplace_back("edges", edges);
    rec.extra.emplace_back("counter_ops", cops);
    rec.extra.emplace_back("counter_ops_per_edge",
                           edges > 0 ? cops / (2.0 * edges) : 0.0);
    rec.extra.emplace_back("batch", cfg.batch ? 1.0 : 0.0);
    json_add(std::move(rec));
  }
  return res;
}

void print_pool_stats(std::ostream& os,
                      const std::vector<pool_registry_row>& rows) {
  for (const auto& row : rows) {
    os << "# pool " << row.name << ": allocs=" << row.stats.allocs
       << " recycles=" << row.stats.recycles
       << " slab_growths=" << row.stats.slab_growths
       << " remote_frees=" << row.stats.remote_frees
       << " live=" << row.stats.live()
       << " retained=" << row.stats.retained();
    if (row.stats.mag_cap_hi != 0) {
      os << " mag_cap=" << row.stats.mag_cap_lo << ".."
         << row.stats.mag_cap_hi << " grows=" << row.stats.mag_grows
         << " shrinks=" << row.stats.mag_shrinks;
    }
    if (row.stats.trims != 0) {
      os << " trims=" << row.stats.trims
         << " slabs_released=" << row.stats.slabs_released;
    }
    if (row.stats.slabs_retired != 0) {
      os << " slabs_retired=" << row.stats.slabs_retired
         << " slabs_reclaimed=" << row.stats.slabs_reclaimed
         << " limbo_cells=" << row.stats.limbo_cells;
    }
    os << "\n";
  }
}

void print_broadcast_stats(std::ostream& os, const outset_totals& outsets,
                           const scheduler_totals& sched) {
  os << "# outset: adds=" << outsets.adds
     << " delivered=" << outsets.delivered
     << " retries=" << outsets.add_cas_retries
     << " rejected=" << outsets.rejected_adds
     << " subtrees_offloaded=" << outsets.subtrees_offloaded
     << " group_adds=" << outsets.group_adds
     << " drains_executed=" << sched.drains_executed
     << " drains_stolen=" << sched.drains_stolen
     << " drains_handed_off=" << sched.drains_handed_off << "\n";
}

std::vector<std::size_t> worker_sweep(std::size_t max_workers, std::size_t points) {
  std::vector<std::size_t> out;
  if (max_workers == 0) max_workers = 1;
  if (max_workers <= points) {
    for (std::size_t w = 1; w <= max_workers; ++w) out.push_back(w);
    return out;
  }
  // 1 plus (points-1) evenly spaced values ending at max_workers.
  out.push_back(1);
  for (std::size_t i = 1; i < points; ++i) {
    const std::size_t w = 1 + i * (max_workers - 1) / (points - 1);
    if (w != out.back()) out.push_back(w);
  }
  return out;
}

common_options read_common(const options& opts, std::uint64_t default_n) {
  common_options c;
  c.n = static_cast<std::uint64_t>(
      opts.get_int("n", static_cast<std::int64_t>(default_n)));
  c.max_proc = static_cast<std::size_t>(opts.get_int(
      "proc", static_cast<std::int64_t>(hardware_core_count())));
  c.runs = static_cast<int>(opts.get_int("runs", 3));
  c.csv = opts.get_bool("csv", false);
  return c;
}

void emit(result_table& table, bool csv) {
  table.print(std::cout);
  if (csv) {
    std::cout << "\n-- csv --\n";
    table.print_csv(std::cout);
  }
  std::cout.flush();
}

// --- JSON telemetry sink ----------------------------------------------------

namespace {

struct json_sink {
  std::mutex mu;
  std::string path;
  std::string bench;
  std::string trace_path;  // -tracefile: Perfetto export target at exit
  std::vector<json_record> records;
  bool enabled = false;
};

json_sink& sink() {
  static json_sink s;
  return s;
}

// Build-stamped by CMake (git rev-parse at configure time); a CI checkout
// env var wins because detached/shallow checkouts can defeat the stamp.
std::string git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && *env) {
    return env;
  }
#ifdef SPDAG_GIT_SHA
  return SPDAG_GIT_SHA;
#else
  return "unknown";
#endif
}

void escape_to(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void emit_pool_stats(std::ostream& os, const pool_stats& s) {
  os << "{\"allocs\":" << s.allocs << ",\"frees\":" << s.frees
     << ",\"recycles\":" << s.recycles << ",\"remote_frees\":" << s.remote_frees
     << ",\"carved\":" << s.carved << ",\"slab_growths\":" << s.slab_growths
     << ",\"magazine_refills\":" << s.magazine_refills
     << ",\"magazine_flushes\":" << s.magazine_flushes
     << ",\"trims\":" << s.trims << ",\"slabs_released\":" << s.slabs_released
     << ",\"cells_released\":" << s.cells_released
     << ",\"slabs_retired\":" << s.slabs_retired
     << ",\"slabs_reclaimed\":" << s.slabs_reclaimed
     << ",\"limbo_cells\":" << s.limbo_cells
     << ",\"mag_grows\":" << s.mag_grows << ",\"mag_shrinks\":" << s.mag_shrinks
     << ",\"magazine_cells\":" << s.magazine_cells
     << ",\"recycle_cells\":" << s.recycle_cells
     << ",\"mag_cap_lo\":" << s.mag_cap_lo << ",\"mag_cap_hi\":" << s.mag_cap_hi
     << ",\"live\":" << s.live() << ",\"retained\":" << s.retained() << "}";
}

void emit_record(std::ostream& os, const json_record& r) {
  os << "{\"name\":";
  escape_to(os, r.name);
  os << ",\"spec\":";
  escape_to(os, r.spec);
  os << ",\"sched\":";
  escape_to(os, r.sched);
  os << ",\"proc\":" << r.proc << ",\"runs\":" << r.runs
     << ",\"ops_per_s\":" << r.ops_per_s << ",\"lat_ms\":" << r.lat_ms
     << ",\"lat_p50_ms\":" << r.lat_p50_ms
     << ",\"lat_p95_ms\":" << r.lat_p95_ms
     << ",\"lat_p99_ms\":" << r.lat_p99_ms
     << ",\"wall_s\":" << r.wall_s;
  os << ",\"trace\":{\"mode\":\""
     << obs::trace_summary::mode_name(r.trace.mode)
     << "\",\"workers\":" << r.trace.workers
     << ",\"events\":" << r.trace.events
     << ",\"dropped\":" << r.trace.dropped
     << ",\"work_frac\":" << r.trace.work_frac
     << ",\"steal_frac\":" << r.trace.steal_frac
     << ",\"idle_frac\":" << r.trace.idle_frac
     << ",\"drain_frac\":" << r.trace.drain_frac
     << ",\"steal_attempts\":" << r.trace.steal_attempts
     << ",\"steal_successes\":" << r.trace.steal_successes
     << ",\"drains\":" << r.trace.drains
     << ",\"drain_handoffs\":" << r.trace.drain_handoffs
     << ",\"finalizes\":" << r.trace.finalizes
     << ",\"submits\":" << r.trace.submits
     << ",\"admits\":" << r.trace.admits
     << ",\"rejects\":" << r.trace.rejects
     << ",\"submit_completes\":" << r.trace.submit_completes << "}";
  os << ",\"pool_totals\":";
  emit_pool_stats(os, r.pool_totals);
  os << ",\"pools\":[";
  for (std::size_t i = 0; i < r.pools.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"name\":";
    escape_to(os, r.pools[i].name);
    os << ",\"object_bytes\":" << r.pools[i].object_bytes << ",\"stats\":";
    emit_pool_stats(os, r.pools[i].stats);
    os << "}";
  }
  os << "]";
  os << ",\"outset_totals\":{\"adds\":" << r.outsets.adds
     << ",\"add_cas_retries\":" << r.outsets.add_cas_retries
     << ",\"rejected_adds\":" << r.outsets.rejected_adds
     << ",\"delivered\":" << r.outsets.delivered
     << ",\"subtrees_offloaded\":" << r.outsets.subtrees_offloaded
     << ",\"group_adds\":" << r.outsets.group_adds << "}";
  os << ",\"scheduler_totals\":{\"executions\":" << r.sched_totals.executions
     << ",\"steals\":" << r.sched_totals.steals
     << ",\"failed_steal_sweeps\":" << r.sched_totals.failed_steal_sweeps
     << ",\"parks\":" << r.sched_totals.parks
     << ",\"wakeups\":" << r.sched_totals.wakeups
     << ",\"drains_executed\":" << r.sched_totals.drains_executed
     << ",\"drains_stolen\":" << r.sched_totals.drains_stolen
     << ",\"drains_handed_off\":" << r.sched_totals.drains_handed_off << "}";
  os << ",\"extra\":{";
  for (std::size_t i = 0; i < r.extra.size(); ++i) {
    if (i > 0) os << ",";
    escape_to(os, r.extra[i].first);
    os << ":" << r.extra[i].second;
  }
  os << "}}";
}

}  // namespace

void json_open(const options& opts, std::string bench_name) {
  json_sink& s = sink();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.path = opts.get_string("json", "");
    s.bench = std::move(bench_name);
    s.trace_path = opts.get_string("tracefile", "");
    s.enabled = !s.path.empty();
    s.records.clear();
  }
  // Tracing spec: applied here, before any runtime exists (the tracer's
  // quiescent-only configure), so every sweep in the main inherits it.
  const std::string spec = opts.get_string("trace", "");
  if (!spec.empty()) {
    try {
      obs::tracer::instance().configure(spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "-trace: " << e.what() << "\n";
      std::exit(2);
    }
  }
}

bool json_enabled() {
  json_sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.enabled;
}

void json_add(json_record rec) {
  json_sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.enabled) return;
  // Auto-embed the utilization summary unless the bench already filled it.
  if (obs::tracer::instance().mode() != obs::trace_mode::off &&
      rec.trace.mode == obs::trace_mode::off) {
    rec.trace = obs::tracer::instance().summary();
  }
  s.records.push_back(std::move(rec));
}

void json_add_rate(const std::string& name, const std::string& spec,
                   std::size_t proc, int runs, double ops, double wall_sum_s,
                   double iters) {
  if (!json_enabled()) return;
  json_record rec;
  rec.name = name;
  rec.spec = spec;
  rec.proc = proc;
  rec.runs = runs;
  rec.wall_s = iters > 0 ? wall_sum_s / iters : 0.0;
  rec.ops_per_s = rec.wall_s > 0 ? ops / rec.wall_s : 0.0;
  json_add(std::move(rec));
}

int json_write() {
  json_sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mu);
  // Trace epilogue first, independent of the JSON sink: the utilization
  // line and the Perfetto export are useful on a bare `-trace full` run.
  int rc = 0;
  obs::tracer& tr = obs::tracer::instance();
  if (tr.mode() != obs::trace_mode::off) {
    const obs::trace_summary ts = tr.summary();
    std::printf(
        "# trace: mode=%s workers=%u work=%.1f%% steal=%.1f%% idle=%.1f%% "
        "drain=%.1f%% events=%llu dropped=%llu\n",
        obs::trace_summary::mode_name(ts.mode), ts.workers,
        100.0 * ts.work_frac, 100.0 * ts.steal_frac, 100.0 * ts.idle_frac,
        100.0 * ts.drain_frac, static_cast<unsigned long long>(ts.events),
        static_cast<unsigned long long>(ts.dropped));
    if (!s.trace_path.empty()) {
      if (tr.dump(s.trace_path) == 0) {
        std::cout << "# wrote trace to " << s.trace_path << "\n";
      } else {
        rc = 1;
      }
    }
  }
  if (!s.enabled) return rc;
  std::ofstream out(s.path, std::ios::trunc);
  if (!out) {
    std::cerr << "json_write: cannot open " << s.path << "\n";
    return 1;
  }
  out.precision(15);  // doubles round-trip; default 6 digits truncates ops/s
  // schema 2: + trace utilization object, lat_p50/p95/p99_ms,
  // pool_stats.cells_released.
  out << "{\"schema\":2,\"bench\":";
  escape_to(out, s.bench);
  out << ",\"git_sha\":";
  escape_to(out, git_sha());
  out << ",\"generated_unix\":" << static_cast<long long>(std::time(nullptr));
  out << ",\"records\":[\n";
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    if (i > 0) out << ",\n";
    emit_record(out, s.records[i]);
  }
  out << "\n]}\n";
  out.flush();
  if (!out) {
    std::cerr << "json_write: write to " << s.path << " failed\n";
    return 1;
  }
  std::cout << "# wrote " << s.records.size() << " bench records to "
            << s.path << "\n";
  return rc;
}

}  // namespace spdag::harness
