#pragma once
// Work-stealing scheduler for sp-dags.
//
// One Chase-Lev deque per worker; the owner treats it as a LIFO stack
// (mirrors serial execution order, keeps the working set hot), thieves take
// the oldest (largest) task from a uniformly random victim. Idle workers
// back off and then park on a condition variable with a short timeout, which
// matters doubly on oversubscribed hosts where spinning steals the mutator's
// cycles. This is the substrate role played in the paper by the authors'
// PASL work-stealing scheduler [2].

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "sched/chase_lev.hpp"
#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

struct scheduler_config {
  std::size_t workers = 0;  // 0 = hardware_core_count()
  bool pin_threads = false;
  // Failed steal sweeps before a worker parks.
  std::size_t steal_sweeps_before_park = 4;
  // Park timeout; bounds the cost of a lost wakeup.
  std::chrono::microseconds park_timeout{500};
};

class scheduler final : public scheduler_base {
 public:
  explicit scheduler(scheduler_config cfg = {});
  ~scheduler() override;

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  // executor: called by the dag engine when a vertex becomes ready, and by
  // external threads to inject roots. Worker threads push to their own
  // deque; everyone else goes through the injection queue.
  void enqueue(vertex* v) override;

  // Drain lane for parallel out-set finalize: tasks land on a shared queue
  // that workers poll only when they have no vertex work, so subtree drains
  // migrate to idle cores without displacing the dag's critical path. run()
  // does not return until the lane is empty (drains are part of quiescence).
  void enqueue_drain(outset_drain_task* t) override;

  // Executes the dag rooted at `root` until `final_v` has run. Blocking;
  // call from a non-worker thread. The engine must use this scheduler as
  // its executor.
  void run(dag_engine& engine, vertex* root, vertex* final_v) override;

  // Resident-service mode (see scheduler_base): attach the engine so
  // externally injected roots execute without a surrounding run(); detach
  // after spinning out to idleness.
  void begin_service(dag_engine& engine) override;
  void end_service() override;
  bool service_idle() const override;

  std::size_t worker_count() const noexcept override { return workers_.size(); }
  scheduler_totals totals() const override;
  void reset_totals() override;

  // Index of the calling worker thread, or -1 for external threads.
  static int current_worker_id() noexcept;

 private:
  // Everything after the deque is written only by the owning worker, on a
  // line of its own: `busy` is set while the worker executes a vertex (run()
  // and service_idle() scan the flags), and the tallies are single-writer
  // (util/tally.hpp) that totals() sums from any thread.
  struct worker {
    chase_lev_deque<vertex> deque;
    alignas(cache_line_size) std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steal_sweeps{0};
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_main(std::size_t id);
  vertex* find_work(std::size_t id, xoshiro256& rng);
  vertex* pop_injected();
  // True while any worker is executing a vertex.
  bool any_busy() const;
  // Runs one queued drain task if any; returns whether it did.
  bool run_one_drain(int id);
  void unpark_some();

  scheduler_config cfg_;
  std::vector<std::unique_ptr<padded<worker>>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mu_;
  std::deque<vertex*> injected_;
  std::atomic<std::size_t> injected_size_{0};

  // One queued subtree drain; `from` is the enqueuing worker (-1 external),
  // kept to tell migrated drains (steals) from self-run ones.
  struct drain_item {
    outset_drain_task* task;
    int from;
  };
  std::mutex drain_mu_;
  std::deque<drain_item> drains_;
  std::atomic<std::size_t> drain_size_{0};
  // Enqueued but not yet finished draining (decremented after run(), so a
  // zero means every spawned subtree is fully delivered — run() waits on it).
  std::atomic<int> drains_pending_{0};
  std::atomic<std::uint64_t> drains_executed_{0};
  std::atomic<std::uint64_t> drains_stolen_{0};

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
