#pragma once
// Work-stealing scheduler for sp-dags.
//
// One Chase-Lev deque per worker; the owner treats it as a LIFO stack
// (mirrors serial execution order, keeps the working set hot), thieves take
// the oldest (largest) task from a uniformly random victim. Idle workers
// sweep a few rounds of random victims and then park (scheduler_base),
// which matters doubly on oversubscribed hosts where spinning steals the
// mutator's cycles. This is the substrate role played in the paper by the
// authors' PASL work-stealing scheduler [2].

#include <cstddef>
#include <memory>
#include <vector>

#include "dag/engine.hpp"
#include "sched/chase_lev.hpp"
#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

class scheduler final : public scheduler_base {
 public:
  // Failed steal sweeps (2n random victims each) before a worker parks.
  static constexpr std::size_t steal_sweeps_before_park = 4;

  // `workers` == 0 means hardware_core_count().
  explicit scheduler(std::size_t workers = 0);
  ~scheduler() override;

  // executor: called by the dag engine when a vertex becomes ready, and by
  // external threads to inject roots. Worker threads push to their own
  // deque; everyone else goes through the injection queue.
  void enqueue(vertex* v) override;

  // Drain lane for parallel out-set finalize: tasks land on the shell's
  // shared injected_drains_ queue, which workers poll only when they have
  // no vertex work, so subtree drains migrate to idle cores without
  // displacing the dag's critical path. run() does not return until the
  // lane is empty (drains are part of quiescence).
  void enqueue_drain(outset_drain_task* t) override;

 private:
  void work_loop(std::size_t id) override;
  vertex* find_work(std::size_t id, worker_slot& me, xoshiro256& rng);
  // Runs one queued drain task if any; returns whether it did.
  bool run_one_drain(std::size_t id, worker_slot& me);

  std::vector<std::unique_ptr<padded<chase_lev_deque<vertex>>>> deques_;
};

}  // namespace spdag
