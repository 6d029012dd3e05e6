// perfbench: the repo-level benchmark driver. Links the library and times
// only calls into its public API. See README.md for the metrics, the
// workloads, and how to run it.
//
//   perfbench --workload fanin|stream --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--spans PATH]
//   perfbench --schema        (metric table, one metric per line)
//
// The time metrics are ratios to a reference the benchmark owns: std::sort
// of a fixed 8 MB array cut into P segments, sorted on one thread (ref1) or
// on P threads at once (refP). References are timed only while no runtime
// or service thread exists, between blocks of reps, and each *_rel metric
// is the median rep over the median of the references of its kind.
//
// The last stdout line is the result object; every line before it is
// context (stamps, raw seconds, sample counts).

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/stream_pipeline.hpp"
#include "dag/engine.hpp"
#include "dag/parallel_for.hpp"
#include "dag/serial_executor.hpp"
#include "incounter/factory.hpp"
#include "mem/epoch.hpp"
#include "mem/registry.hpp"
#include "obs/trace.hpp"
#include "outset/factory.hpp"
#include "sched/chase_lev.hpp"
#include "sched/runtime.hpp"
#include "service/mpmc_queue.hpp"
#include "service/service.hpp"
#include "snzi/stats.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

using namespace spdag;
using perfbench::median;

constexpr unsigned kWorkers = 4;  // P: nproc of the reference machine
constexpr std::size_t kRefElems = std::size_t{1} << 20;  // 8 MB of uint64
constexpr double kBlockSeconds = 0.4;
constexpr int kWarmReps = 2;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// splitmix64 finalizer; the same function apps::stream_run folds with, so
// the serial reference fold below can reproduce its checksum.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- run context ------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string spans_path;
  bool schema = false;
};

struct span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::uint64_t id;
};

// Spans recorded around each call the benchmark makes into a layer. Kept in
// memory; written out once the run has finished measuring.
class span_log {
 public:
  bool on = false;
  void add(const char* name, std::int64_t t0, std::int64_t t1,
           std::uint64_t id = 0) {
    if (on) spans_.push_back({name, t0, t1, id});
  }
  void write(const std::string& path) const {
    if (!on || path.empty()) return;
    std::ofstream out(path);
    out << "name\tid\tstart_ns\tdur_ns\n";
    for (const auto& s : spans_)
      out << s.name << '\t' << s.id << '\t' << s.t0 << '\t' << (s.t1 - s.t0)
          << '\n';
  }

 private:
  std::vector<span> spans_;
};

struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> stamps;  // context, never gated on
  std::vector<std::string> notes;  // context lines, printed before the result
  void note(const std::string& s) { notes.push_back(s); }
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

// --- the memory-bound reference ---------------------------------------------

class reference {
 public:
  reference() : src_(kRefElems), work_(kRefElems) {
    xoshiro256 rng(0x7e5eed);  // fixed: identical on every seed and commit
    for (auto& x : src_) x = rng();
  }

  // One timed pass: sort kWorkers segments, on one thread or one each.
  double once(unsigned threads) {
    std::copy(src_.begin(), src_.end(), work_.begin());
    const std::size_t seg = kRefElems / kWorkers;
    auto sort_seg = [this, seg](unsigned k) {
      std::sort(work_.begin() + k * seg, work_.begin() + (k + 1) * seg);
    };
    const std::int64_t t0 = now_ns();
    if (threads == 1) {
      for (unsigned k = 0; k < kWorkers; ++k) sort_seg(k);
    } else {
      std::vector<std::thread> ts;
      for (unsigned k = 0; k < kWorkers; ++k) ts.emplace_back(sort_seg, k);
      for (auto& t : ts) t.join();
    }
    return seconds_since(t0);
  }

 private:
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> work_;
};

// --- isolated layer loops ---------------------------------------------------

// ns per op: median over `reps` timed calls of body(), each doing `ops` ops.
double ns_per_op(span_log& spans, const char* name, int reps, double ops,
                 const std::function<void()>& body) {
  body();  // warm
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    spans.add(name, t0, t1);
    v.push_back(static_cast<double>(t1 - t0) / ops);
  }
  return median(v);
}

struct isolated {
  double counter_pair = 0;  // arrive+depart
  double add_k_edge = 0;
  double dag_spawn = 0;     // per spawn, engine over serial_executor
  double dag_self_vertex = 0;  // the engine's own share, per vertex created
  double alloc_free = 0;
  double remote_free = 0;
  double epoch_pin = 0;
  double epoch_refresh = 0;
  double outset_add = 0;
  double outset_finalize = 0;
  double deque_push_pop = 0;
  double deque_steal = 0;
  double mpmc = 0;
  double submit = 0;
  double hook_off = 0;
};

// Keeps a loop's results observable so the compiler cannot drop the loop.
volatile std::uintptr_t g_sink = 0;
void sink(const void* p) { g_sink = reinterpret_cast<std::uintptr_t>(p); }

isolated measure_layers(span_log& spans) {
  isolated m;
  auto pools = make_pool_registry("pool");
  constexpr int reps = 7;

  {  // counter (dyn): arrive + depart on one counter, one thread
    auto f = make_counter_factory("dyn", nullptr, pools.get());
    dep_counter* c = f->acquire(1);
    const token root = c->root_token();
    constexpr int n = 200000;
    m.counter_pair =
        ns_per_op(spans, "layer.counter.arrive_depart", reps, n, [&] {
          for (int i = 0; i < n; ++i) {
            const arrive_result r = c->arrive(root, (i & 1) != 0);
            c->depart(r.dec);
          }
        });
    constexpr std::uint32_t k = 8;
    m.add_k_edge = ns_per_op(spans, "layer.counter.add_k", reps, n * 1.0, [&] {
      for (int i = 0; i < n / static_cast<int>(k); ++i) {
        const arrive_result r = c->add(root, (i & 1) != 0, k);
        for (std::uint32_t j = 0; j < k; ++j) c->depart(r.dec);
      }
    });
    c->depart(root);
    f->release(c);
  }

  // Per fanin over serial_executor: its time, and the vertices, counter ops
  // and pool allocations the engine spent on it.
  double dag_ns = 0, dag_verts = 0, dag_ctr_ops = 0, dag_allocs = 0;
  {  // dag engine over serial_executor: small fanins of n leaves. The
     // executor is FIFO, so a fanin's whole frontier is live at once; small
     // fanins keep that frontier in cache as a depth-first worker would.
    serial_executor ex;
    auto f = make_counter_factory("dyn", nullptr, pools.get());
    dag_engine eng(*f, ex, {.pools = pools.get()});
    constexpr std::size_t n = 256;
    auto one = [&] {
      for (int k = 0; k < 256; ++k) {
        auto [root, fin] = eng.make();
        root->body = [] {
          parallel_for(0, n, 1, [](std::size_t i) { g_sink = i; });
        };
        eng.add(root);
        eng.add(fin);
        ex.run_all(eng);
      }
    };
    one();
    const auto& s = eng.stats();
    const std::uint64_t sp0 = s.spawns, v0 = s.vertices_created,
                        e0 = s.counter_incs + s.counter_decs;
    const pool_stats p0 = pools->totals();
    dag_ns = ns_per_op(spans, "layer.dag.spawn_signal", reps, 1.0, one);
    const double runs = reps + 1;  // ns_per_op warms once
    dag_verts = static_cast<double>(s.vertices_created - v0) / runs;
    dag_ctr_ops =
        static_cast<double>(s.counter_incs + s.counter_decs - e0) / runs;
    dag_allocs = static_cast<double>(pools->totals().allocs - p0.allocs) / runs;
    m.dag_spawn = dag_ns / (static_cast<double>(s.spawns - sp0) / runs);
  }

  {  // slab pool: alloc/free pairs on one thread, and frees from another
    object_pool& p = pools->get("perfbench", 64, 64);
    constexpr int batch = 256;
    constexpr int rounds = 400;
    void* cells[batch];
    m.alloc_free = ns_per_op(
        spans, "layer.mem.alloc_free", reps, batch * rounds, [&] {
          for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < batch; ++i) cells[i] = p.allocate();
            for (int i = 0; i < batch; ++i) p.deallocate(cells[i]);
          }
        });

    constexpr int remote_batch = 4096;
    std::vector<void*> handoff(remote_batch);
    std::mutex mu;
    std::condition_variable cv;
    int phase = 0;  // odd: cells handed to the freeing thread
    std::vector<double> free_ns;
    std::thread freer([&] {
      p.deallocate(p.allocate());  // own a magazine, like a worker does
      for (int r = 0; r < 2 * reps + 1; ++r) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return phase % 2 == 1; });
        const std::int64_t t0 = now_ns();
        for (void* c : handoff) p.deallocate(c);
        const std::int64_t t1 = now_ns();
        spans.add("layer.mem.remote_free", t0, t1);
        free_ns.push_back(static_cast<double>(t1 - t0) / remote_batch);
        ++phase;
        cv.notify_all();
      }
    });
    for (int r = 0; r < 2 * reps + 1; ++r) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return phase % 2 == 0; });
      for (auto& c : handoff) c = p.allocate();
      ++phase;
      cv.notify_all();
    }
    freer.join();
    free_ns.erase(free_ns.begin());  // warm-up round
    m.remote_free = median(free_ns);
  }
  // The engine's own share: what the fanin cost minus the counter and pool
  // work it delegated (a counter op is half an arrive+depart pair).
  m.dag_self_vertex = (dag_ns - dag_ctr_ops / 2 * m.counter_pair -
                       dag_allocs * m.alloc_free) /
                      dag_verts;

  {
    constexpr int n = 1000000;
    m.epoch_pin = ns_per_op(spans, "layer.mem.epoch_pin", reps, n, [&] {
      for (int i = 0; i < n; ++i) mem::epoch::pin_guard g;
    });
    // What a worker pays per executed vertex: a refresh while pinned.
    mem::epoch::pin_guard g;
    m.epoch_refresh = ns_per_op(spans, "layer.mem.epoch_refresh", reps, n, [&] {
      for (int i = 0; i < n; ++i) mem::epoch::refresh();
    });
  }

  {  // out-set (the runtime's default spec): add, then finalize per waiter
    auto f = make_outset_factory("simple", pools.get());
    constexpr int width = 64;
    constexpr int rounds = 2000;
    outset_waiter* ws[width];
    auto sink = [](void* ctx, outset_waiter* w) {
      static_cast<outset_factory*>(ctx)->release_waiter(w);
    };
    std::vector<double> add_ns, fin_ns;
    for (int r = 0; r < reps + 1; ++r) {
      std::int64_t add_t = 0, fin_t = 0;
      for (int k = 0; k < rounds; ++k) {
        outset* o = f->acquire();
        for (int i = 0; i < width; ++i)
          ws[i] = f->acquire_waiter(nullptr, nullptr);
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < width; ++i) o->add(ws[i]);
        const std::int64_t t1 = now_ns();
        o->finalize(sink, f.get());
        const std::int64_t t2 = now_ns();
        f->release(o);
        add_t += t1 - t0;
        fin_t += t2 - t1;
      }
      spans.add("layer.outset.add_finalize", 0, add_t + fin_t, r);
      if (r == 0) continue;
      add_ns.push_back(static_cast<double>(add_t) / (width * rounds));
      fin_ns.push_back(static_cast<double>(fin_t) / (width * rounds));
    }
    m.outset_add = median(add_ns);
    m.outset_finalize = median(fin_ns);
  }

  {  // Chase-Lev deque: owner push/pop, and push then steal
    chase_lev_deque<int> d;
    constexpr int batch = 64;
    constexpr int rounds = 8000;
    int items[batch];
    m.deque_push_pop = ns_per_op(
        spans, "layer.sched.deque_push_pop", reps, batch * rounds, [&] {
          for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < batch; ++i) d.push_bottom(&items[i]);
            for (int i = 0; i < batch; ++i) sink(d.pop_bottom());
          }
        });
    std::vector<double> steal_ns;
    for (int r = 0; r < reps + 1; ++r) {
      std::int64_t t = 0;
      for (int k = 0; k < rounds; ++k) {
        for (int i = 0; i < batch; ++i) d.push_bottom(&items[i]);
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < batch; ++i) sink(d.steal_top());
        t += now_ns() - t0;
      }
      spans.add("layer.sched.deque_steal", 0, t, r);
      if (r > 0) steal_ns.push_back(static_cast<double>(t) / (batch * rounds));
    }
    m.deque_steal = median(steal_ns);
  }

  {  // service injection queue, and submit() into a 1-worker service
    mpmc_queue<int> q;
    int dummy[64];
    constexpr int batch = 64;
    constexpr int rounds = 4000;
    m.mpmc = ns_per_op(
        spans, "layer.service.mpmc_push_pop", reps, batch * rounds, [&] {
          for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < batch; ++i) (void)q.push(&dummy[i]);
            for (int i = 0; i < batch; ++i) sink(q.pop());
          }
        });

    service_config cfg;
    cfg.rt.workers = 1;
    dag_service svc(cfg);
    constexpr int n = 2048;
    std::vector<ticket> ts;
    ts.reserve(n);
    std::vector<double> sub_ns;
    for (int r = 0; r < reps + 1; ++r) {
      ts.clear();
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < n; ++i) ts.push_back(svc.submit([] { g_sink = 1; }));
      const std::int64_t t1 = now_ns();
      spans.add("layer.service.submit", t0, t1, r);
      for (auto& t : ts) t.wait();
      if (r > 0) sub_ns.push_back(static_cast<double>(t1 - t0) / n);
    }
    ts.clear();
    m.submit = median(sub_ns);
  }

  {  // a disabled trace hook: the tracer is off unless a spec turned it on
    if (obs::tracer::instance().mode() != obs::trace_mode::off)
      throw std::runtime_error("tracer unexpectedly on");
    constexpr int n = 10000000;
    m.hook_off = ns_per_op(spans, "layer.obs.trace_hook_off", reps, n, [&] {
      for (int i = 0; i < n; ++i)
        obs::emit(obs::ev_steal_attempt, 0, static_cast<std::uint32_t>(i));
    });
  }
  return m;
}

void report_layers(const isolated& m, result& res) {
  res.metrics["counter.arrive_depart_ns"] = m.counter_pair;
  res.metrics["counter.add_k_ns_per_edge"] = m.add_k_edge;
  res.metrics["dag.spawn_signal_ns"] = m.dag_spawn;
  res.metrics["mem.alloc_free_ns"] = m.alloc_free;
  res.metrics["mem.remote_free_ns"] = m.remote_free;
  res.metrics["mem.epoch_pin_ns"] = m.epoch_pin;
  res.metrics["outset.add_ns"] = m.outset_add;
  res.metrics["outset.finalize_ns_per_waiter"] = m.outset_finalize;
  res.metrics["sched.deque_push_pop_ns"] = m.deque_push_pop;
  res.metrics["sched.deque_steal_ns"] = m.deque_steal;
  res.metrics["service.mpmc_push_pop_ns"] = m.mpmc;
  res.metrics["service.submit_ns"] = m.submit;
  res.metrics["obs.trace_hook_off_ns"] = m.hook_off;
  res.note(fmt("layers: dag self %.1f ns/vertex (engine over serial_executor "
               "minus its counter and pool work), epoch refresh %.2f ns",
               m.dag_self_vertex, m.epoch_refresh));
}

// --- batch workloads (fanin, stream) ----------------------------------------

// Per-thread leaf accumulators for fanin, one cache line each, so the
// checksum adds no shared-line traffic of its own. A thread takes the next
// slot at its first leaf. Only one runtime's workers run leaves at a time,
// and they take consecutive slots, so no two live threads share one.
struct alignas(64) leaf_acc {
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
};
constexpr int kSlots = 64;
leaf_acc g_acc[kSlots];
std::atomic<int> g_next_slot{0};

leaf_acc& my_acc() {
  thread_local int slot = g_next_slot.fetch_add(1) % kSlots;
  return g_acc[slot];
}

class batch_workload {
 public:
  virtual ~batch_workload() = default;
  // Regenerates the inputs from the seed (part of every block's set-up).
  virtual void generate(std::uint64_t seed) = 0;
  virtual std::uint64_t tasks_per_rep() const = 0;
  // One rep on rt; false when its output is wrong.
  virtual bool rep(runtime& rt) = 0;
};

// fanin: one parallel_for (fork2 splitter) of n leaves under the run's
// finish block. Each leaf adds a seeded weight.
class fanin_workload final : public batch_workload {
 public:
  static constexpr std::size_t n = 1 << 16;
  void generate(std::uint64_t seed) override {
    xoshiro256 rng(mix(seed ^ 0xfa41));
    weights_.resize(n);
    expected_ = 0;
    for (auto& w : weights_) expected_ += (w = rng() >> 16);
  }
  std::uint64_t tasks_per_rep() const override { return n; }
  bool rep(runtime& rt) override {
    for (auto& a : g_acc) {
      a.sum.store(0, std::memory_order_relaxed);
      a.count.store(0, std::memory_order_relaxed);
    }
    const std::uint64_t* w = weights_.data();
    rt.run([w] {
      parallel_for(0, n, 1, [w](std::size_t i) {
        leaf_acc& a = my_acc();
        a.sum.store(a.sum.load(std::memory_order_relaxed) + w[i],
                    std::memory_order_relaxed);
        a.count.store(a.count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      });
    });
    std::uint64_t sum = 0, count = 0;
    for (auto& a : g_acc) {
      sum += a.sum.load(std::memory_order_relaxed);
      count += a.count.load(std::memory_order_relaxed);
    }
    return count == n && sum == expected_ && rt.engine().live_vertices() == 0;
  }

 private:
  std::vector<std::uint64_t> weights_;
  std::uint64_t expected_ = 0;
};

// stream: apps::stream_run, items x stages futures with `width` consumers
// per stage registered through future_then_group.
class stream_workload final : public batch_workload {
 public:
  void generate(std::uint64_t seed) override {
    cfg_ = {.items = 512, .stages = 4, .width = 8, .seed = mix(seed ^ 0x57e4),
            .batch = true};
    // The app's fold, serially: stage s maps v to mix(v ^ (s+1)), and each
    // of its width consumers folds mix(v ^ (j << 32)).
    expected_ = 0;
    for (std::uint64_t i = 0; i < cfg_.items; ++i) {
      std::uint64_t v = mix(cfg_.seed ^ i);
      for (std::uint32_t s = 0; s < cfg_.stages; ++s) {
        v = mix(v ^ (s + 1));
        for (std::uint32_t j = 0; j < cfg_.width; ++j)
          expected_ += mix(v ^ (std::uint64_t{j} << 32));
      }
    }
  }
  std::uint64_t tasks_per_rep() const override {
    return cfg_.items * cfg_.stages * cfg_.width;
  }
  bool rep(runtime& rt) override {
    const apps::stream_result r = apps::stream_run(rt, cfg_);
    return r.deliveries == tasks_per_rep() && r.checksum == expected_ &&
           rt.engine().live_vertices() == 0;
  }

 private:
  apps::stream_config cfg_;
  std::uint64_t expected_ = 0;
};

// Cumulative layer counters of one runtime, read between reps.
struct snapshot {
  double vertices = 0, edges = 0, ctr_ops = 0, executions = 0;
  pool_stats pool;
  scheduler_totals sched;
  outset_totals outs;
  double snzi_ops = 0, snzi_cas_fail = 0, snzi_grow = 0;
};

snapshot take(runtime& rt, const snzi::tree_stats& st) {
  snapshot s;
  const engine_stats& e = rt.engine().stats();
  s.vertices = static_cast<double>(e.vertices_created.load());
  s.edges = static_cast<double>(e.edges.load());
  s.ctr_ops =
      static_cast<double>(e.counter_incs.load() + e.counter_decs.load());
  s.executions = static_cast<double>(e.executions.load());
  s.pool = rt.pools().totals();
  s.sched = rt.sched().totals();
  s.outs = rt.outsets().totals();
  s.snzi_ops = static_cast<double>(st.arrives.load() + st.departs.load());
  s.snzi_cas_fail = static_cast<double>(st.cas_failures.load());
  s.snzi_grow = static_cast<double>(st.grow_calls.load());
  return s;
}

// Layer counts accumulated over measured reps.
struct counts {
  double reps = 0, tasks = 0, vertices = 0, edges = 0, ctr_ops = 0,
         executions = 0;
  double allocs = 0, frees = 0, remote_frees = 0, slab_growths = 0;
  double steals = 0, failed_sweeps = 0, parks = 0;
  double adds = 0, group_adds = 0, add_retries = 0, delivered = 0;
  double snzi_ops = 0, snzi_cas_fail = 0, snzi_grow = 0;

  counts& operator+=(const counts& o) {
    for (auto f : fields()) this->*f += o.*f;
    return *this;
  }
  static std::vector<double counts::*> fields() {
    return {&counts::reps, &counts::tasks, &counts::vertices, &counts::edges,
            &counts::ctr_ops, &counts::executions, &counts::allocs,
            &counts::frees, &counts::remote_frees, &counts::slab_growths,
            &counts::steals, &counts::failed_sweeps, &counts::parks,
            &counts::adds, &counts::group_adds, &counts::add_retries,
            &counts::delivered, &counts::snzi_ops, &counts::snzi_cas_fail,
            &counts::snzi_grow};
  }

  void add(const snapshot& a, const snapshot& b, double nreps, double ntasks) {
    reps += nreps;
    tasks += ntasks;
    vertices += b.vertices - a.vertices;
    edges += b.edges - a.edges;
    ctr_ops += b.ctr_ops - a.ctr_ops;
    executions += b.executions - a.executions;
    auto d = [](std::uint64_t from, std::uint64_t to) {
      return static_cast<double>(to - from);
    };
    allocs += d(a.pool.allocs, b.pool.allocs);
    frees += d(a.pool.frees, b.pool.frees);
    remote_frees += d(a.pool.remote_frees, b.pool.remote_frees);
    slab_growths += d(a.pool.slab_growths, b.pool.slab_growths);
    steals += d(a.sched.steals, b.sched.steals);
    failed_sweeps +=
        d(a.sched.failed_steal_sweeps, b.sched.failed_steal_sweeps);
    parks += d(a.sched.parks, b.sched.parks);
    adds += d(a.outs.adds, b.outs.adds);
    group_adds += d(a.outs.group_adds, b.outs.group_adds);
    add_retries += d(a.outs.add_cas_retries, b.outs.add_cas_retries);
    delivered += d(a.outs.delivered, b.outs.delivered);
    snzi_ops += b.snzi_ops - a.snzi_ops;
    snzi_cas_fail += b.snzi_cas_fail - a.snzi_cas_fail;
    snzi_grow += b.snzi_grow - a.snzi_grow;
  }
};

double retained_mb(runtime& rt) {
  double bytes = 0;
  for (const auto& row : rt.pools().rows())
    bytes += static_cast<double>(row.stats.retained() * row.object_bytes);
  return bytes / (1024.0 * 1024.0);
}

struct block {
  bool traced = false;
  double setup_s = 0;
  std::vector<double> rep_s;
  std::vector<double> cpu_s;
  counts c;
  double retained_mb = 0;
};

// One block: set up a runtime (inputs, construction, kWarmReps warm-up reps
// that carve the pools), time reps for kBlockSeconds, tear it down. Every
// rep, warm-up included, is checked.
block run_block(batch_workload& w, unsigned workers, bool traced,
                std::uint64_t seed, span_log& spans, result& res) {
  block b;
  b.traced = traced;
  snzi::tree_stats st;
  auto checked_rep = [&](runtime& rt) {
    ++res.attempted;
    if (!w.rep(rt)) ++res.failed;
  };
  const std::int64_t t0 = now_ns();
  w.generate(seed);
  runtime rt({.workers = workers,
              .counter = "dyn",
              .snzi_stats = traced ? &st : nullptr,
              .sched = "ws",
              .alloc = "pool"});
  for (int i = 0; i < kWarmReps; ++i) checked_rep(rt);
  b.setup_s = seconds_since(t0);

  const snapshot s0 = take(rt, st);
  const std::int64_t start = now_ns();
  while (b.rep_s.size() < 3 || seconds_since(start) < kBlockSeconds) {
    const double c0 = cpu_seconds();
    const std::int64_t r0 = now_ns();
    checked_rep(rt);
    const std::int64_t r1 = now_ns();
    b.cpu_s.push_back(cpu_seconds() - c0);
    b.rep_s.push_back((r1 - r0) * 1e-9);
    spans.add(workers == 1 ? "rt.run.p1" : "rt.run.pP", r0, r1);
  }
  const snapshot s1 = take(rt, st);
  b.c.add(s0, s1, static_cast<double>(b.rep_s.size()),
          static_cast<double>(b.rep_s.size() * w.tasks_per_rep()));
  b.retained_mb = retained_mb(rt);
  return b;
}

void run_batch(batch_workload& w, const options& opt, reference& ref,
               span_log& spans, result& res) {
  const bool trace = opt.trace;
  isolated layers;
  if (trace) layers = measure_layers(spans);

  // Rounds of R1 B1 RP BP, closed by a final R1 RP, until the time is used.
  std::vector<double> ref1, refp;
  std::vector<block> b1, bp;
  const std::int64_t start = now_ns();
  std::uint64_t round = 0;
  while (seconds_since(start) < opt.seconds || b1.size() < 2) {
    const std::uint64_t seed = opt.seed * 1000003 + round;
    ref1.push_back(ref.once(1));
    // Traced runs alternate plain and traced 1-worker blocks, to price the
    // benchmark's own tracing; every traced P-worker block counts layers.
    b1.push_back(run_block(w, 1, trace && round % 2 == 1, seed, spans, res));
    refp.push_back(ref.once(kWorkers));
    bp.push_back(run_block(w, kWorkers, trace, seed, spans, res));
    ++round;
  }
  ref1.push_back(ref.once(1));
  refp.push_back(ref.once(kWorkers));

  // Each *_rel is a median rep over the median of the references of its
  // kind interleaved with the blocks.
  std::vector<double> raw1, raw1_traced, rawp, cpup, setup;
  for (std::size_t i = 0; i < b1.size(); ++i) {
    auto& dst = b1[i].traced ? raw1_traced : raw1;
    dst.insert(dst.end(), b1[i].rep_s.begin(), b1[i].rep_s.end());
    rawp.insert(rawp.end(), bp[i].rep_s.begin(), bp[i].rep_s.end());
    cpup.insert(cpup.end(), bp[i].cpu_s.begin(), bp[i].cpu_s.end());
    setup.push_back(b1[i].setup_s + bp[i].setup_s);
  }
  const double tasks = static_cast<double>(w.tasks_per_rep());
  const perfbench::quantile tail = perfbench::tail(rawp);
  const double r1 = median(ref1), rp = median(refp);
  res.note(fmt("reference: ref1 %.6f s, refP %.6f s (median of %zu each), "
               "effective_parallelism %.3f",
               r1, rp, ref1.size(), r1 / rp));
  res.note(fmt("raw: %.0f tasks/s at 1 worker (%zu reps), %.0f tasks/s at %u "
               "workers (%zu reps); tail q=%.4f with %zu of %zu beyond",
               tasks / median(raw1), raw1.size(), tasks / median(rawp),
               kWorkers, rawp.size(), tail.q, tail.beyond, tail.n));
  res.stamps["effective_parallelism"] = r1 / rp;
  res.stamps["ref1_s"] = r1;
  res.stamps["refP_s"] = rp;
  res.stamps["tasks_per_s_1"] = tasks / median(raw1);
  res.stamps["tasks_per_s_P"] = tasks / median(rawp);
  const double t1_rel = perfbench::rel(raw1, ref1);
  // Per-layer, not gated: host preemptions set the tail, and it spread up
  // to 0.18 (interquartile range over median) across ten runs.
  res.metrics["tp_tail_rel"] = tail.value / rp;

  if (!trace) {
    res.metrics["t1_rel"] = t1_rel;
    res.metrics["tp_rel"] = perfbench::rel(rawp, refp);
    res.metrics["tp_cpu_rel"] = perfbench::rel(cpup, ref1);
    res.metrics["setup_s"] = median(setup);
    return;
  }

  counts c1, cp;
  for (const auto& b : b1) c1 += b.c;
  for (const auto& b : bp) cp += b.c;
  const double kp = cp.tasks / 1000.0;
  auto& m = res.metrics;
  report_layers(layers, res);
  m["dag.counter_ops_per_edge"] = c1.ctr_ops / (2 * c1.edges);
  m["dag.vertices_per_task"] = c1.vertices / c1.tasks;
  m["snzi.node_ops_per_task"] = cp.snzi_ops / cp.tasks;
  m["snzi.cas_failures_per_ktask"] = cp.snzi_cas_fail / kp;
  m["snzi.grow_calls_per_ktask"] = cp.snzi_grow / kp;
  m["sched.steals_per_ktask"] = cp.steals / kp;
  m["sched.failed_sweeps_per_ktask"] = cp.failed_sweeps / kp;
  m["sched.parks_per_ktask"] = cp.parks / kp;
  m["mem.slab_growths_measured"] = c1.slab_growths + cp.slab_growths;
  m["mem.remote_free_frac"] = cp.frees > 0 ? cp.remote_frees / cp.frees : 0;
  m["mem.retained_mb"] = bp.back().retained_mb;
  m["outset.adds_per_task"] = c1.adds / c1.tasks;
  m["outset.group_adds_per_task"] = c1.group_adds / c1.tasks;
  m["outset.add_cas_retries_per_kadd"] =
      cp.adds > 0 ? cp.add_retries / (cp.adds / 1000.0) : 0;

  // Decomposition of the plain 1-worker rep into isolated per-op costs times
  // the counts the layers reported for it. Per executed vertex the worker
  // loop does one deque push/pop, one epoch refresh and three disabled
  // trace hooks.
  const double per_rep = 1.0 / c1.reps;
  const double attributed =
      per_rep * (c1.ctr_ops / 2 * layers.counter_pair +
                 c1.allocs * layers.alloc_free + c1.adds * layers.outset_add +
                 c1.delivered * layers.outset_finalize +
                 c1.executions * (layers.deque_push_pop + layers.epoch_refresh +
                                  3 * layers.hook_off) +
                 c1.vertices * layers.dag_self_vertex);
  const double rep_ns = median(raw1) * 1e9;
  m["decompose.unattributed_frac"] = 1.0 - attributed / rep_ns;
  m["obs.bench_trace_overhead_frac"] =
      perfbench::rel(raw1_traced, ref1) / t1_rel - 1.0;
  res.note(fmt("decompose: 1-worker rep %.0f ns, attributed %.0f ns over "
               "%.0f vertices", rep_ns, attributed, c1.vertices * per_rep));
}

// --- main -------------------------------------------------------------------

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = std::stoi(val()) != 0;
    else if (a == "--git-sha") o.git_sha = val();
    else if (a == "--spans") o.spans_path = val();
    else if (a == "--schema") o.schema = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.schema) return true;
  if (o.workload != "fanin" && o.workload != "stream")
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0 && o.seconds <= 600))
    throw std::invalid_argument("--seconds must be in (0, 600]");
  return true;
}

std::string json_number(double v) { return fmt("%.17g", v); }

// An exception escaping a library thread (a worker, the service dispatcher)
// ends the process. Report it as a failed run rather than a bare abort.
[[noreturn]] void on_terminate() {
  std::string what = "unknown";
  if (std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& x) {
      what = x.what();
    } catch (...) {
    }
  }
  std::fprintf(stderr,
               "perfbench: uncaught exception on a library thread: %s\n",
               what.c_str());
  std::printf(
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
      "\"metrics\": {}}\n");
  std::fflush(stdout);
  std::_Exit(1);
}

// Restricts the calling thread, and so every thread it starts afterwards,
// to the last CPU it may run on. The host behind this benchmark hands a
// process anywhere from about one to about four cores' worth of time, and
// the share moves within minutes; P workers time-sliced on one CPU behave
// the same in either state, P workers spread over four vCPUs do not.
bool pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  try {
    parse(argc, argv, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.schema) {
    for (const auto& d : perfbench::schema())
      std::printf("%s\t%s\t%s\t%s\t%g\n", d.name, d.unit, d.better,
                  d.kind == perfbench::layer::end_to_end ? "end_to_end"
                                                         : "per_layer",
                  d.bound);
    return 0;
  }

  std::set_terminate(on_terminate);
  result res;
  span_log spans;
  spans.on = opt.trace;
  reference ref;
  ref.once(1);  // fault the buffers in; calibration, not set-up
  ref.once(kWorkers);
  // The host's parallelism, before pinning: stamped, never gated on.
  {
    std::vector<double> r1, rp;
    for (int i = 0; i < 3; ++i) {
      r1.push_back(ref.once(1));
      rp.push_back(ref.once(kWorkers));
    }
    res.stamps["host_effective_parallelism"] = median(r1) / median(rp);
  }
  if (!pin_to_one_cpu()) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }
  try {
    if (opt.workload == "fanin") {
      fanin_workload w;
      run_batch(w, opt, ref, spans, res);
    } else {
      stream_workload w;
      run_batch(w, opt, ref, spans, res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  res.metrics.emplace("peak_rss_mb", peak_rss_mb());
  spans.write(opt.spans_path);

  // Exactly the schema's metrics of this kind.
  bool complete = true;
  std::string metrics;
  for (const auto& d : perfbench::schema()) {
    const bool want = (d.kind == perfbench::layer::per_layer) == opt.trace;
    if (!want) continue;
    auto it = res.metrics.find(d.name);
    if (it == res.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   d.name);
      complete = false;
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", d.name,
                   json_number(it->second).c_str(), d.unit);
  }
  const bool correct = complete && res.failed == 0 && res.attempted > 0;

  for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
  std::string stamp = fmt(
      "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"nproc\": %u, "
      "\"git_sha\": \"%s\"",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? "true" : "false", std::thread::hardware_concurrency(),
      opt.git_sha.c_str());
  for (const auto& [k, v] : res.stamps)
    stamp += fmt(", \"%s\": %s", k.c_str(), json_number(v).c_str());
  std::printf("# stamp %s}\n", stamp.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
