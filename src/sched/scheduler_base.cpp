#include "sched/scheduler_base.hpp"

#include "mem/epoch.hpp"
#include "outset/outset.hpp"
#include "util/backoff.hpp"
#include "util/topology.hpp"

namespace spdag {

scheduler_base::scheduler_base(std::size_t workers) {
  const std::size_t n = workers == 0 ? hardware_core_count() : workers;
  slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<padded<worker_slot>>());
  }
}

scheduler_base::~scheduler_base() {
  assert(threads_.empty() &&
         "a scheduler policy must call stop() in its destructor");
}

void scheduler_base::start() {
  threads_.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    threads_.emplace_back([this, i] {
      tls_worker_id_ = static_cast<int>(i);
      tls_pool_ = this;
      // Workers stay epoch-pinned for their whole loop: every stale read a
      // worker can perform — SNZI pair reuse inside execute(), out-set node
      // walks in a drain, the pool's own recycle-list pops — is then covered
      // by the pin, and trim_live() can run concurrently without a
      // stop-the-world phase. Work loops REFRESH the pin (never hold it
      // across an epoch boundary while stale pointers exist) at the loop
      // top, where the worker provably holds no runtime pointers, and tick()
      // the advance machinery on steal/idle transitions, so a busy scheduler
      // makes epoch progress without any dedicated reclaimer thread. park()
      // unpins across the sleep.
      mem::epoch::pin_guard eg;
      work_loop(i);
    });
  }
}

void scheduler_base::stop() {
  shutdown_.store(true, std::memory_order_seq_cst);
  // Every sleeper's wait predicate reads stopping(); taking its mutex
  // before the notify means it is either about to read the flag or already
  // waiting for this notify.
  for (auto& s : slots_) {
    park_cell& c = s->value.park.value;
    { std::lock_guard<std::mutex> lock(c.mu); }
    c.cv.notify_one();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void scheduler_base::park(worker_slot& me) {
  // Unpin across the wait — a sleeping worker must not stall the global
  // epoch — and re-pin on wake, before the loop touches anything pooled.
  // The shutdown check is an if-guard so the unpin/pin bracket stays
  // balanced; the work loop re-checks stopping().
  mem::epoch::unpin();
  park_cell& c = me.park.value;
  if (!stopping()) {
    bump(me.parks);
    // Count first, cell second: sleepers_ never reads below the number of
    // parked cells, so a waker that reads 0 has nobody to claim.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    c.state.store(parked, std::memory_order_seq_cst);
    if (injected_.empty() && injected_drains_.empty()) {
      obs::span_guard sg(obs::sp_idle);
      std::unique_lock<std::mutex> lock(c.mu);
      c.cv.wait_for(lock, park_timeout, [&] {
        return c.state.load(std::memory_order_acquire) != parked ||
               stopping();
      });
    }
    int expect = parked;
    if (c.state.compare_exchange_strong(expect, running,
                                        std::memory_order_seq_cst)) {
      // Timed out, shut down, or found injected work: withdraw.
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      // A waker claimed this cell and already took it off the count.
      bump(me.wakeups);
      c.state.store(running, std::memory_order_relaxed);
    }
  }
  mem::epoch::pin();
}

bool scheduler_base::claim_one() {
  // Start after the caller's own slot (a worker never parks while it
  // enqueues) so concurrent wakers spread over the pool.
  const std::size_t n = slots_.size();
  const std::size_t first = static_cast<std::size_t>(local_worker() + 1);
  for (std::size_t i = 0; i < n; ++i) {
    park_cell& c = slots_[(first + i) % n]->value.park.value;
    if (c.state.load(std::memory_order_seq_cst) != parked) continue;
    std::unique_lock<std::mutex> lock(c.mu);
    int expect = parked;
    if (!c.state.compare_exchange_strong(expect, claimed,
                                         std::memory_order_seq_cst)) {
      continue;
    }
    lock.unlock();
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    c.cv.notify_one();
    return true;
  }
  return false;
}

void scheduler_base::run_drain(worker_slot& me, outset_drain_task* t,
                               bool migrated) {
  {
    obs::span_guard sg(obs::sp_drain);
    t->run();
  }
  obs::gauge_add(obs::g_drains_pending, -1);
  bump(me.drains_executed);
  if (migrated) {
    bump(me.drains_stolen);
    obs::emit(obs::ev_drain_steal);
  }
  // Decrement AFTER run(), and after any re-offloads the task made bumped
  // the count: pending==0 must mean fully delivered, not merely dequeued.
  drains_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

bool scheduler_base::any_busy() const {
  for (const auto& s : slots_) {
    if (s->value.busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void scheduler_base::run(dag_engine& engine, vertex* root, vertex* final_v) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(!service_.load(std::memory_order_acquire) &&
         "run() may not overlap resident-service mode");
  engine_.store(&engine, std::memory_order_release);
  stop_vertex_.store(final_v, std::memory_order_release);
  done_.store(false, std::memory_order_release);
  enqueue(root);
  // The root spawns work at once: bring every announced sleeper out to
  // steal it rather than leave them to their timeouts.
  while (sleepers_.load(std::memory_order_seq_cst) != 0) {
    if (!claim_one()) break;
  }
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock,
                  [this] { return done_.load(std::memory_order_acquire); });
  }
  // The final vertex ran, but a worker may still be in the epilogue of a
  // chained/spawned vertex (recycling it), and empty-subtree drain tasks
  // (no consumer gated the finish on them) may still be queued holding
  // pinned future states. Spin out both so that returning from run()
  // implies every vertex is recycled and every drain delivered.
  backoff b;
  while (any_busy() || drains_pending_.load(std::memory_order_acquire) != 0) {
    b.pause();
  }
  stop_vertex_.store(nullptr, std::memory_order_release);
}

void scheduler_base::begin_service(dag_engine& engine) {
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

void scheduler_base::end_service() {
  assert(service_.load(std::memory_order_acquire) &&
         "end_service without begin_service");
  // The caller guarantees no further roots will be injected; spin out
  // whatever is still in flight. Termination: with no external producer,
  // workers only shrink the queued population, and parked workers re-check
  // on their timeout.
  backoff b;
  while (!service_idle()) b.pause();
  engine_.store(nullptr, std::memory_order_release);
  service_.store(false, std::memory_order_release);
}

bool scheduler_base::service_idle() const {
  // Queued drain tasks need no probe of their own: drain_enqueued() counts
  // each one pending before any worker can see it.
  return injected_.empty() &&
         drains_pending_.load(std::memory_order_acquire) == 0 && !any_busy();
}

scheduler_totals scheduler_base::totals() const {
  scheduler_totals t;
  for (const auto& s : slots_) {
    const worker_slot& w = s->value;
    t.executions += w.executions.load(std::memory_order_relaxed);
    t.steals += w.steals.load(std::memory_order_relaxed);
    t.failed_steal_sweeps +=
        w.failed_steal_sweeps.load(std::memory_order_relaxed);
    t.parks += w.parks.load(std::memory_order_relaxed);
    t.wakeups += w.wakeups.load(std::memory_order_relaxed);
    t.drains_executed += w.drains_executed.load(std::memory_order_relaxed);
    t.drains_stolen += w.drains_stolen.load(std::memory_order_relaxed);
    t.drains_handed_off += w.drains_handed_off.load(std::memory_order_relaxed);
  }
  return t;
}

void scheduler_base::reset_totals() {
  for (auto& s : slots_) {
    worker_slot& w = s->value;
    for (auto* c : {&w.executions, &w.steals, &w.failed_steal_sweeps, &w.parks,
                    &w.wakeups, &w.drains_executed, &w.drains_stolen,
                    &w.drains_handed_off}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace spdag
