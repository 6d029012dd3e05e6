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
  // Park announcements, and of those the ones a waker claimed (the rest
  // timed out or withdrew on finding work). So wakeups <= parks, except
  // that a reset_totals() while a worker sleeps can count its wakeup
  // without its park.
  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;
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
// by threads that cannot use a worker's own queue. The size is published and
// probed seq_cst: a parking worker's re-check of it pairs with the pusher's
// read of the sleeper count (scheduler_base::park), so a push never strands.
template <typename T>
class injection_queue {
 public:
  void push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(item);
    size_.fetch_add(1, std::memory_order_seq_cst);
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
    return size_.load(std::memory_order_seq_cst) == 0;
  }

 private:
  std::mutex mu_;
  std::deque<T> items_;
  std::atomic<std::size_t> size_{0};
};

class scheduler_base : public executor {
 public:
  // How long an idle worker sleeps before looking for work again: the
  // backstop for the wakes park() lets the per-vertex path miss.
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
  // Where a worker sleeps. `state` goes running -> parked when the owner
  // announces itself, parked -> claimed when one waker picks it, and back
  // to running when the owner wakes (or withdraws parked -> running itself).
  // The mutex and cv serve only this worker and its one claimer.
  enum park_state : int { running, parked, claimed };
  struct park_cell {
    std::atomic<int> state{running};
    std::mutex mu;
    std::condition_variable cv;
  };

  // One worker's shared state. `busy` is up while it executes a vertex
  // (run() and service_idle() scan the flags), and the tallies are
  // single-writer (util/tally.hpp) that totals() sums from any thread; only
  // the worker writes either. Wakers touch only `park`, on its own line.
  struct worker_slot {
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steal_sweeps{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> drains_executed{0};
    std::atomic<std::uint64_t> drains_stolen{0};
    std::atomic<std::uint64_t> drains_handed_off{0};
    cache_aligned<park_cell> park;
  };

  // One queued out-set subtree drain; `from` is the enqueuing worker (-1
  // for a non-worker thread), kept to tell migrated drains from self-run
  // ones.
  struct drain_item {
    outset_drain_task* task;
    int from;
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

  // Waking an idle worker is a claim, not a broadcast. park() announces
  // the worker (sleepers_ + 1, then its cell parked), re-checks the two
  // injection queues, and sleeps on its own cell until a waker claims it,
  // stop() runs, or park_timeout passes; on a timeout it withdraws the
  // announcement unless a waker claimed it first. unpark_some() reads
  // sleepers_ and, only when someone is unclaimed, CASes one parked cell to
  // claimed, takes it off the count and notifies that worker alone. So
  // enqueue's common case is one load of a word nobody writes while the
  // pool is busy: no mutex, no RMW, no fence, and a notified worker no
  // longer draws a notify from every enqueue until it is scheduled.
  //
  // Which wakes may be missed. A worker pushing onto its own deque (or,
  // under `private`, its own drain queue) reads sleepers_ with no StoreLoad
  // fence after the push (on x86 the seq_cst load below is a plain load;
  // the push's store is not seq_cst), so it can miss a worker that is
  // announcing at that moment. That costs at most one park_timeout of
  // stealing delay: the pusher runs its own queue anyway. Keeping a fence
  // off that path is the point, since it runs once per vertex. Work from
  // non-worker threads has no such owner: run()'s root, service submissions and external drains go
  // through injected_ / injected_drains_, whose size is published seq_cst
  // before the pusher's seq_cst read of sleepers_, while park() announces
  // seq_cst before its seq_cst re-check of the same sizes. One of the two
  // sides sees the other, so an injected item is never left with every
  // worker asleep.
  //
  // park() sleeps the worker owning `me`; call it only from that worker.
  void park(worker_slot& me);

  void unpark_some() {
    if (sleepers_.load(std::memory_order_seq_cst) != 0) claim_one();
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
  // Drain tasks any worker may run: `ws`'s shared drain lane, and the
  // drains non-worker threads hand `private`.
  injection_queue<drain_item> injected_drains_;
  // Enqueued but not yet finished draining (decremented after the task
  // runs, so a zero means every queued subtree is fully delivered — run()
  // and service_idle() wait on it).
  std::atomic<int> drains_pending_{0};

 private:
  // The policy's worker loop; returns once stopping() reads true.
  virtual void work_loop(std::size_t id) = 0;
  // True while any worker is executing a vertex.
  bool any_busy() const;
  // Claims and wakes one parked worker; false if none was parked.
  bool claim_one();

  static inline thread_local int tls_worker_id_ = -1;
  static inline thread_local const scheduler_base* tls_pool_ = nullptr;

  std::vector<std::unique_ptr<padded<worker_slot>>> slots_;
  std::vector<std::thread> threads_;

  // Workers announced in park() and not yet claimed or withdrawn: the one
  // word enqueue reads. Never below the number of parked cells. Written only
  // on park transitions, so it shares its line with the read-mostly words
  // below.
  std::atomic<int> sleepers_{0};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> service_{false};
  std::atomic<dag_engine*> engine_{nullptr};
  std::atomic<vertex*> stop_vertex_{nullptr};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> done_{true};
};

}  // namespace spdag
