#pragma once
// The worker-pool shell both sp-dag schedulers share.
//
// Two scheduling policies derive from it:
//   * scheduler               — concurrent Chase-Lev deques (classic work
//                               stealing, Blumofe-Leiserson / Arora et al.)
//   * private_deque_scheduler — private deques with explicit steal requests
//                               (Acar, Charguéraud & Rainey, PPoPP'13 — the
//                               scheduler the paper's own evaluation used)
//
// The shell owns everything that is not a scheduling decision: the worker
// threads and their epoch pin, parking, the per-worker busy flags and
// tallies, the vertex injection queue for non-worker threads, executing one
// vertex, drain quiescence accounting, and the run() / resident-service
// entry points. A policy owns where a ready vertex goes (enqueue), how a
// worker finds work (its work loop), where a drain task goes
// (enqueue_drain), and its own teardown. Policy loops call the shell's
// non-virtual helpers directly; the only virtual dispatch the shell adds is
// each thread's single entry into its policy's work loop.
//
// A scheduler takes one setting, its worker count. The protocol constants
// (park timeout here, steal counts and the drain cap in each policy) are
// fixed, since no caller needs other values.

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "obs/trace.hpp"
#include "util/cache_aligned.hpp"
#include "util/tally.hpp"

namespace spdag {

struct scheduler_totals {
  std::uint64_t executions = 0;
  std::uint64_t steals = 0;
  // Times a worker came back from stealing empty-handed. The unit is the
  // policy's steal step: for `ws`, one sweep of 2n random victims (a worker
  // parks after 4 in a row); for `private`, one failed steal attempt — a
  // lost request CAS or a declined request (a worker parks after 16).
  std::uint64_t failed_steal_sweeps = 0;
  std::uint64_t parks = 0;
  // Out-set subtree-drain tasks run by workers (the parallel finalize lane;
  // zero when every drain ran inline on the enqueuing thread).
  std::uint64_t drains_executed = 0;
  // Of those, tasks run by a worker other than the enqueuing one — finalize
  // work that actually migrated to an idle core.
  std::uint64_t drains_stolen = 0;
  // Drain tasks that left their enqueuing worker through the scheduler's
  // transfer mechanism: for `private`, a steal request answered with a
  // queued drain (receiver-initiated hand-off); for `ws` the shared lane IS
  // the transfer mechanism, so this equals drains_stolen there. Both
  // schedulers report all three fields so bench/fanout_scalability -deep can
  // compare them like for like.
  std::uint64_t drains_handed_off = 0;
};

// Mutexed FIFO with a lock-free emptiness probe, for work handed to a pool
// by threads that cannot use a worker's own queue.
template <typename T>
class injection_queue {
 public:
  void push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(item);
    size_.fetch_add(1, std::memory_order_release);
  }

  // The oldest item, or a value-initialized T when the queue is empty.
  T pop() {
    if (empty()) return T{};
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return T{};
    T item = items_.front();
    items_.pop_front();
    size_.fetch_sub(1, std::memory_order_release);
    return item;
  }

  bool empty() const noexcept {
    return size_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::mutex mu_;
  std::deque<T> items_;
  std::atomic<std::size_t> size_{0};
};

class scheduler_base : public executor {
 public:
  // How long an idle worker sleeps before looking for work again; bounds
  // the cost of a lost wakeup.
  static constexpr std::chrono::microseconds park_timeout{500};

  ~scheduler_base() override;

  scheduler_base(const scheduler_base&) = delete;
  scheduler_base& operator=(const scheduler_base&) = delete;

  // Executes the dag rooted at `root` until `final_v` has run and every
  // vertex has been recycled (quiescence). Blocking; call from a non-worker
  // thread. The engine must use this scheduler as its executor.
  void run(dag_engine& engine, vertex* root, vertex* final_v);

  // --- resident-service mode (src/service/) --------------------------------
  //
  // A dag_service keeps the worker pool alive across many externally
  // submitted dags instead of wrapping each one in run(). begin_service
  // attaches the engine so roots injected by non-worker threads (through
  // enqueue) execute as they arrive; each submitted dag carries its own
  // completion (a body on its final vertex), so there is no stop vertex and
  // nothing blocks. end_service spins the scheduler out to idleness and
  // detaches — the caller must guarantee no further roots are injected.
  // Service mode and run() may not overlap.
  void begin_service(dag_engine& engine);
  void end_service();

  // True when this scheduler holds no queued or running work: injection
  // queue empty, no worker mid-execute, no drain task pending. NOT a full
  // quiescence proof by itself — vertices can sit in worker-private deques
  // between executes — so resident-service callers pair it with
  // engine.live_vertices() == 0, which covers anything a deque could hold.
  bool service_idle() const;

  std::size_t worker_count() const noexcept { return slots_.size(); }
  scheduler_totals totals() const;
  void reset_totals();

  // Index of the calling thread in its worker pool, or -1 for a thread
  // that is no scheduler's worker.
  static int current_worker_id() noexcept { return tls_worker_id_; }

 protected:
  // One worker's shared state, written only by that worker: `busy` is up
  // while it executes a vertex (run() and service_idle() scan the flags),
  // and the tallies are single-writer (util/tally.hpp) that totals() sums
  // from any thread.
  struct worker_slot {
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steal_sweeps{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> drains_executed{0};
    std::atomic<std::uint64_t> drains_stolen{0};
    std::atomic<std::uint64_t> drains_handed_off{0};
  };

  // `workers` == 0 means hardware_core_count(). Starts no thread: a policy
  // calls start() at the end of its constructor, once the members its work
  // loop uses exist, and stop() first thing in its destructor, before they
  // are destroyed.
  explicit scheduler_base(std::size_t workers);
  void start();
  void stop();

  // The calling thread's worker index if it belongs to this pool, else -1.
  int local_worker() const noexcept {
    return tls_pool_ == this ? tls_worker_id_ : -1;
  }
  bool stopping() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }
  worker_slot& slot(std::size_t id) noexcept { return slots_[id]->value; }

  // Executes one ready vertex on the worker owning `me`, and wakes run()
  // if it was the final vertex.
  void execute_one(worker_slot& me, vertex* v) {
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
  }

  // Sleeps the worker owning `me` for up to park_timeout, or until
  // unpark_some() or stop() wakes it.
  void park(worker_slot& me);

  void unpark_some() {
    if (parked_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(park_mu_);
      park_cv_.notify_one();
    }
  }

  // Counts a drain task toward quiescence; call BEFORE the task becomes
  // visible to any worker, so a queued drain always reads as pending.
  void drain_enqueued() {
    drains_pending_.fetch_add(1, std::memory_order_acq_rel);
    obs::gauge_add(obs::g_drains_pending, 1);
    obs::emit(obs::ev_drain_enqueue);
  }

  // Runs one drain task on the worker owning `me` and settles the pending
  // count; `migrated` = it was enqueued by a different worker or thread.
  void run_drain(worker_slot& me, outset_drain_task* t, bool migrated);

  // Roots (and any other vertex) enqueued by non-worker threads.
  injection_queue<vertex*> injected_;
  // Enqueued but not yet finished draining (decremented after the task
  // runs, so a zero means every queued subtree is fully delivered — run()
  // and service_idle() wait on it).
  std::atomic<int> drains_pending_{0};

 private:
  // The policy's worker loop; returns once stopping() reads true.
  virtual void work_loop(std::size_t id) = 0;
  // True while any worker is executing a vertex.
  bool any_busy() const;

  static inline thread_local int tls_worker_id_ = -1;
  static inline thread_local const scheduler_base* tls_pool_ = nullptr;

  std::vector<std::unique_ptr<padded<worker_slot>>> slots_;
  std::vector<std::thread> threads_;

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> service_{false};
  std::atomic<dag_engine*> engine_{nullptr};
  std::atomic<vertex*> stop_vertex_{nullptr};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> done_{true};
};

}  // namespace spdag
