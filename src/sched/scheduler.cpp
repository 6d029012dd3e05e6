#include "sched/scheduler.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/tally.hpp"

namespace spdag {

scheduler::scheduler(std::size_t workers) : scheduler_base(workers) {
  deques_.reserve(worker_count());
  for (std::size_t i = 0; i < worker_count(); ++i) {
    deques_.push_back(std::make_unique<padded<chase_lev_deque<vertex>>>());
  }
  start();
}

scheduler::~scheduler() {
  stop();
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
  const int id = local_worker();
  if (id >= 0) {
    deques_[static_cast<std::size_t>(id)]->value.push_bottom(v);
  } else {
    injected_.push(v);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

void scheduler::enqueue_drain(outset_drain_task* t) {
  drain_enqueued();
  drains_.push({t, local_worker()});
  unpark_some();
}

bool scheduler::run_one_drain(std::size_t id, worker_slot& me) {
  const drain_item item = drains_.pop();
  if (item.task == nullptr) return false;
  const bool migrated = item.from != static_cast<int>(id);
  // The shared lane IS this scheduler's transfer mechanism: every drain
  // that runs on a non-enqueuing worker left its enqueuer through it.
  if (migrated) bump(me.drains_handed_off);
  run_drain(me, item.task, migrated);
  return true;
}

vertex* scheduler::find_work(std::size_t id, worker_slot& me,
                             xoshiro256& rng) {
  if (vertex* v = deques_[id]->value.pop_bottom()) return v;
  if (vertex* v = injected_.pop()) return v;
  // Steal sweeps: random victims, a few rounds, then report failure so the
  // caller can park.
  obs::span_guard steal_span(obs::sp_steal);
  const std::size_t n = worker_count();
  for (std::size_t sweep = 0; sweep < steal_sweeps_before_park; ++sweep) {
    for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
      const std::size_t victim = static_cast<std::size_t>(rng.below(n));
      if (victim == id) continue;
      obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
      if (vertex* v = deques_[victim]->value.steal_top()) {
        bump(me.steals);
        obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
        return v;
      }
    }
    if (vertex* v = injected_.pop()) return v;
    cpu_relax();
  }
  bump(me.failed_steal_sweeps);
  return nullptr;
}

void scheduler::work_loop(std::size_t id) {
  xoshiro256 rng(mix64(0x9e3779b97f4a7c15ULL ^ (id + 1)));
  worker_slot& me = slot(id);
  while (!stopping()) {
    mem::epoch::refresh();
    if (vertex* v = find_work(id, me, rng)) {
      execute_one(me, v);
      continue;
    }
    // No vertex anywhere: a steal-failure transition is a natural epoch
    // communication point — no stale pointers are held, so tick the advance
    // machinery before looking for drain work.
    mem::epoch::tick();
    // An idle worker is exactly who should steal a subtree drain (the dag's
    // critical path keeps priority over broadcast bookkeeping).
    if (run_one_drain(id, me)) continue;
    park(me);
  }
}

}  // namespace spdag
