#include "sched/scheduler.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "outset/outset.hpp"
#include "util/backoff.hpp"
#include "util/tally.hpp"
#include "util/topology.hpp"

namespace spdag {

namespace {
thread_local int tls_worker_id = -1;
thread_local scheduler* tls_scheduler = nullptr;
}  // namespace

int scheduler::current_worker_id() noexcept { return tls_worker_id; }

scheduler::scheduler(scheduler_config cfg) : cfg_(cfg) {
  const std::size_t n = cfg_.workers == 0 ? hardware_core_count() : cfg_.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<padded<worker>>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

scheduler::~scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
  // Drains must have quiesced: run() waits for the lane to empty, and the
  // runtime destroys its engine BEFORE this scheduler, so a task still
  // queued here could only come from unstructured direct executor use —
  // and running it now would deliver waiters into a destroyed engine.
  // Assert loudly instead of executing use-after-destruction.
  assert(drains_pending_.load(std::memory_order_acquire) == 0 &&
         "scheduler destroyed with pending subtree drains; drive the "
         "drain lane to quiescence (run()) before teardown");
}

void scheduler::enqueue(vertex* v) {
  if (tls_scheduler == this && tls_worker_id >= 0) {
    workers_[static_cast<std::size_t>(tls_worker_id)]->value.deque.push_bottom(v);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    injected_.push_back(v);
    injected_size_.fetch_add(1, std::memory_order_release);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

void scheduler::enqueue_drain(outset_drain_task* t) {
  const int from = tls_scheduler == this ? tls_worker_id : -1;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drains_.push_back({t, from});
    drain_size_.fetch_add(1, std::memory_order_release);
  }
  drains_pending_.fetch_add(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_drains_pending, 1);
  obs::emit(obs::ev_drain_enqueue);
  unpark_some();
}

bool scheduler::run_one_drain(int id) {
  if (drain_size_.load(std::memory_order_acquire) == 0) return false;
  drain_item item{nullptr, -1};
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (drains_.empty()) return false;
    item = drains_.front();
    drains_.pop_front();
    drain_size_.fetch_sub(1, std::memory_order_release);
  }
  {
    obs::span_guard sg(obs::sp_drain);
    item.task->run();
  }
  obs::gauge_add(obs::g_drains_pending, -1);
  drains_executed_.fetch_add(1, std::memory_order_relaxed);
  if (item.from != id) {
    drains_stolen_.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::ev_drain_steal);
  }
  // Decrement AFTER run(): pending==0 must mean fully delivered, not merely
  // dequeued (run() below spins on it for quiescence).
  drains_pending_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

vertex* scheduler::pop_injected() {
  if (injected_size_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (injected_.empty()) return nullptr;
  vertex* v = injected_.front();
  injected_.pop_front();
  injected_size_.fetch_sub(1, std::memory_order_release);
  return v;
}

void scheduler::unpark_some() {
  if (parked_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
}

vertex* scheduler::find_work(std::size_t id, xoshiro256& rng) {
  worker& me = workers_[id]->value;
  if (vertex* v = me.deque.pop_bottom()) return v;
  if (vertex* v = pop_injected()) return v;
  // Steal sweeps: random victims, a few rounds, then report failure so the
  // caller can park.
  obs::span_guard steal_span(obs::sp_steal);
  const std::size_t n = workers_.size();
  for (std::size_t sweep = 0; sweep < cfg_.steal_sweeps_before_park; ++sweep) {
    for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
      const std::size_t victim = static_cast<std::size_t>(rng.below(n));
      if (victim == id) continue;
      obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
      if (vertex* v = workers_[victim]->value.deque.steal_top()) {
        bump(me.steals);
        obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
        return v;
      }
    }
    if (vertex* v = pop_injected()) return v;
    cpu_relax();
  }
  bump(me.failed_steal_sweeps);
  return nullptr;
}

bool scheduler::any_busy() const {
  for (const auto& w : workers_) {
    if (w->value.busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void scheduler::worker_main(std::size_t id) {
  tls_worker_id = static_cast<int>(id);
  tls_scheduler = this;
  if (cfg_.pin_threads) pin_current_thread(id);
  xoshiro256 rng(mix64(0x9e3779b97f4a7c15ULL ^ (id + 1)));
  worker& me = workers_[id]->value;

  // Workers stay epoch-pinned for their whole loop: every stale read a
  // worker can perform — SNZI pair reuse inside execute(), out-set node
  // walks in a drain, the pool's own recycle-list pops — is then covered by
  // the pin, and trim_live() can run concurrently without a stop-the-world
  // phase. The pin is REFRESHED (never held across an epoch boundary while
  // stale pointers exist) at the loop top, where the worker provably holds
  // no runtime pointers; steal/idle transitions additionally tick() the
  // advance machinery, so a busy scheduler makes epoch progress without any
  // dedicated reclaimer thread.
  mem::epoch::pin_guard eg;

  while (!shutdown_.load(std::memory_order_acquire)) {
    mem::epoch::refresh();
    vertex* v = find_work(id, rng);
    if (v != nullptr) {
      dag_engine* eng = engine_.load(std::memory_order_acquire);
      assert(eng != nullptr && "work found with no engine attached");
      const bool is_final = (v == stop_vertex_.load(std::memory_order_relaxed));
      // The flag goes up before execute() publishes anything (children,
      // signals), so whoever learns of that work later also sees the flag.
      // The release store lowers it only after the vertex is recycled and
      // counted, so a reader that sees it down sees both.
      me.busy.store(true, std::memory_order_relaxed);
      obs::gauge_add(obs::g_runnable, -1);
      {
        obs::span_guard sg(obs::sp_work);
        eng->execute(v);
      }
      bump(me.executions);
      me.busy.store(false, std::memory_order_release);
      if (is_final) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.store(true, std::memory_order_release);
        done_cv_.notify_all();
      }
      continue;
    }
    // No vertex anywhere: a steal-failure transition is a natural epoch
    // communication point — no stale pointers are held, so tick the advance
    // machinery before looking for drain work.
    mem::epoch::tick();
    // An idle worker is exactly who should steal a subtree drain (the dag's
    // critical path keeps priority over broadcast bookkeeping).
    if (run_one_drain(static_cast<int>(id))) continue;
    // Out of work: park briefly. The timeout (rather than precise wakeup
    // accounting) keeps the protocol simple and bounds lost-wakeup cost.
    // Unpin across the wait — a sleeping worker must not stall the global
    // epoch — and re-pin on wake, before the loop touches anything pooled.
    // The shutdown check is an if-guard (not a break) so the unpin/pin
    // bracket stays balanced; the loop condition re-checks shutdown.
    mem::epoch::unpin();
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      if (!shutdown_.load(std::memory_order_acquire)) {
        bump(me.parks);
        parked_.fetch_add(1, std::memory_order_acq_rel);
        {
          obs::span_guard sg(obs::sp_idle);
          park_cv_.wait_for(lock, cfg_.park_timeout);
        }
        parked_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    mem::epoch::pin();
  }
}

void scheduler::begin_service(dag_engine& engine) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(done_.load(std::memory_order_acquire) &&
         "begin_service may not overlap run()");
  assert(!service_.load(std::memory_order_acquire) &&
         "begin_service called twice");
  // Clear the stale stop vertex from any previous run(): pooled vertices
  // recycle addresses, so a service-mode vertex could alias it and fire the
  // (harmless, but confusing) done_ notification path.
  stop_vertex_.store(nullptr, std::memory_order_release);
  service_.store(true, std::memory_order_release);
  engine_.store(&engine, std::memory_order_release);
}

void scheduler::end_service() {
  assert(service_.load(std::memory_order_acquire) &&
         "end_service without begin_service");
  // The caller guarantees no further roots will be injected; spin out
  // whatever is still in flight. Termination: with no external producer,
  // workers only shrink the injected/deque/drain population, and parked
  // workers re-check on their timeout.
  backoff b;
  while (!service_idle()) b.pause();
  engine_.store(nullptr, std::memory_order_release);
  service_.store(false, std::memory_order_release);
}

bool scheduler::service_idle() const {
  return injected_size_.load(std::memory_order_acquire) == 0 &&
         drain_size_.load(std::memory_order_acquire) == 0 &&
         drains_pending_.load(std::memory_order_acquire) == 0 && !any_busy();
}

void scheduler::run(dag_engine& engine, vertex* root, vertex* final_v) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(!service_.load(std::memory_order_acquire) &&
         "run() may not overlap resident-service mode");
  engine_.store(&engine, std::memory_order_release);
  stop_vertex_.store(final_v, std::memory_order_release);
  done_.store(false, std::memory_order_release);
  enqueue(root);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
  }
  // The final vertex ran, but a worker may still be in the epilogue of a
  // chained/spawned vertex (recycling it), and empty-subtree drain tasks
  // (no consumer gated the finish on them) may still sit in the drain lane
  // holding pinned future states. Spin out both so that returning from
  // run() implies every vertex is recycled and every drain delivered.
  backoff b;
  while (any_busy() || drains_pending_.load(std::memory_order_acquire) != 0) {
    b.pause();
  }
  stop_vertex_.store(nullptr, std::memory_order_release);
}

scheduler_totals scheduler::totals() const {
  scheduler_totals t;
  for (const auto& w : workers_) {
    t.executions += w->value.executions.load(std::memory_order_relaxed);
    t.steals += w->value.steals.load(std::memory_order_relaxed);
    t.failed_steal_sweeps += w->value.failed_steal_sweeps.load(std::memory_order_relaxed);
    t.parks += w->value.parks.load(std::memory_order_relaxed);
  }
  t.drains_executed = drains_executed_.load(std::memory_order_relaxed);
  t.drains_stolen = drains_stolen_.load(std::memory_order_relaxed);
  // The shared lane IS this scheduler's transfer mechanism: every drain that
  // ran on a non-enqueuing worker left its enqueuer through it.
  t.drains_handed_off = t.drains_stolen;
  return t;
}

void scheduler::reset_totals() {
  for (auto& w : workers_) {
    w->value.executions.store(0, std::memory_order_relaxed);
    w->value.steals.store(0, std::memory_order_relaxed);
    w->value.failed_steal_sweeps.store(0, std::memory_order_relaxed);
    w->value.parks.store(0, std::memory_order_relaxed);
  }
  drains_executed_.store(0, std::memory_order_relaxed);
  drains_stolen_.store(0, std::memory_order_relaxed);
}

}  // namespace spdag
