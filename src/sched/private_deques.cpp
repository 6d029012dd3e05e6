#include "sched/private_deques.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "outset/outset.hpp"
#include "util/backoff.hpp"
#include "util/tally.hpp"

namespace spdag {

private_deque_scheduler::private_deque_scheduler(std::size_t workers)
    : scheduler_base(workers) {
  workers_.reserve(worker_count());
  for (std::size_t i = 0; i < worker_count(); ++i) {
    workers_.push_back(std::make_unique<padded<worker>>());
  }
  start();
}

private_deque_scheduler::~private_deque_scheduler() {
  stop();
  // Structured teardown leaves nothing here: run() holds out for drain
  // quiescence, so queued drains at destruction can only come from direct
  // executor use (tests, unstructured embeddings). A drain task must run
  // exactly once or its cell leaks, so flush the queues and any hand-off
  // abandoned mid-transfer on this thread — workers are joined, so this is
  // single-threaded. Tasks that re-offload go through enqueue_drain again
  // and land in the injected queue (this thread is not a worker), which the
  // loop below keeps draining.
  auto run_leftover = [this](outset_drain_task* t) {
    t->run();
    drains_pending_.fetch_sub(1, std::memory_order_relaxed);
  };
  for (auto& w : workers_) {
    worker& me = w->value;
    if (outset_drain_task* t =
            me.drain_transfer.value.load(std::memory_order_acquire)) {
      me.drain_transfer.value.store(nullptr, std::memory_order_relaxed);
      run_leftover(t);
    }
    while (!me.drains.empty()) {
      outset_drain_task* t = me.drains.front();
      me.drains.pop_front();
      run_leftover(t);
    }
  }
  while (outset_drain_task* t = injected_drains_.pop().task) run_leftover(t);
  assert(drains_pending_.load(std::memory_order_acquire) == 0 &&
         "drain accounting out of balance at teardown");
}

void private_deque_scheduler::enqueue(vertex* v) {
  const int id = local_worker();
  if (id >= 0) {
    // Owner-only push; no synchronization by design.
    workers_[static_cast<std::size_t>(id)]->value.tasks.push_back(v);
  } else {
    injected_.push(v);
  }
  obs::gauge_add(obs::g_runnable, 1);
  unpark_some();
}

void private_deque_scheduler::enqueue_drain(outset_drain_task* t) {
  if (worker_count() > 1) {
    const int id = local_worker();
    if (id >= 0) {
      // Worker path: queue privately. communicate() answers steal requests
      // from it, and the idle path below runs what nobody asked for.
      worker& me = workers_[static_cast<std::size_t>(id)]->value;
      if (me.drains.size() < drain_queue_cap) {
        drain_enqueued();
        me.drains.push_back(t);
        unpark_some();
        return;
      }
      // Saturated: fall through to the inline trampoline rather than grow
      // an unbounded private backlog thieves may never ask for.
    } else {
      // External thread: nothing private to queue on; inject for an idle
      // worker to adopt (the dual of the vertex injection queue).
      drain_enqueued();
      injected_drains_.push({t, -1});
      unpark_some();
      return;
    }
  }
  // Single worker (no thief to hand to) or saturated queue: run inline
  // through the flattening trampoline, same as the serial executor.
  executor::enqueue_drain(t);
}

void private_deque_scheduler::communicate(std::size_t id, bool can_give) {
  // communicate() is this scheduler's natural epoch communication point: it
  // runs only between tasks (busy-loop top, idle path, try_steal's answer
  // spin), when the worker provably holds no stale runtime pointers — so
  // refreshing the pin and occasionally driving advance/reclaim here is
  // legal, and it keeps epoch progress proportional to scheduler activity.
  mem::epoch::tick();
  worker& me = workers_[id]->value;
  const int thief = me.request.value.load(std::memory_order_acquire);
  if (thief == no_request) return;
  worker& other = workers_[static_cast<std::size_t>(thief)]->value;
  if (can_give && !me.tasks.empty()) {
    // Serve the OLDEST task: it is the root of the largest unexplored
    // subcomputation, the standard steal-one-from-the-top heuristic.
    vertex* v = me.tasks.front();
    me.tasks.pop_front();
    other.transfer.value.store(v, std::memory_order_release);
  } else if (!me.drains.empty()) {
    // No vertex to spare, but broadcast bookkeeping is queued: hand the
    // OLDEST drain (nearest the out-set root, the widest subtree) to the
    // thief. The drain_transfer store must precede the drain_given()
    // publication — the thief's acquire on `transfer` is what orders it.
    outset_drain_task* t = me.drains.front();
    me.drains.pop_front();
    other.drain_transfer.value.store(t, std::memory_order_release);
    other.transfer.value.store(drain_given(), std::memory_order_release);
    bump(slot(id).drains_handed_off);
    obs::emit(obs::ev_drain_handoff, static_cast<std::uint16_t>(thief));
  } else {
    other.transfer.value.store(declined(), std::memory_order_release);
  }
  me.request.value.store(no_request, std::memory_order_release);
}

vertex* private_deque_scheduler::try_steal(std::size_t id, std::size_t victim,
                                           outset_drain_task** drain_out) {
  worker& me = workers_[id]->value;
  me.transfer.value.store(waiting(), std::memory_order_release);
  int expect = no_request;
  if (!workers_[victim]->value.request.value.compare_exchange_strong(
          expect, static_cast<int>(id), std::memory_order_acq_rel)) {
    return nullptr;  // another thief beat us to this victim
  }
  // Spin for the answer; keep declining our own incoming requests so two
  // thieves waiting on each other cannot deadlock (an idle thief may still
  // hand off its own queued drains, which only helps).
  backoff b;
  for (;;) {
    vertex* v = me.transfer.value.load(std::memory_order_acquire);
    if (v == drain_given()) {
      *drain_out = me.drain_transfer.value.load(std::memory_order_acquire);
      me.drain_transfer.value.store(nullptr, std::memory_order_relaxed);
      return nullptr;
    }
    if (v != waiting()) {
      return v == declined() ? nullptr : v;
    }
    communicate(id, /*can_give=*/false);
    if (stopping()) return nullptr;
    b.pause();
  }
}

void private_deque_scheduler::work_loop(std::size_t id) {
  xoshiro256 rng(mix64(0xa076'1d64'78bd'642fULL ^ (id + 1)));
  worker& me = workers_[id]->value;
  worker_slot& ms = slot(id);

  while (!stopping()) {
    mem::epoch::refresh();
    if (!me.tasks.empty()) {
      // Busy: poll for steal requests, then run the newest task (LIFO for
      // locality; thieves get the oldest through communicate()).
      communicate(id, /*can_give=*/me.tasks.size() > 1);
      vertex* v = me.tasks.back();
      me.tasks.pop_back();
      execute_one(ms, v);
      continue;
    }

    // Idle: decline anything pending, drain the injection queue, then run
    // queued broadcast work, then go thieving. Own drains come before
    // stealing — an idle worker IS the idle core the hand-off exists to
    // reach, so running the backlog here beats shipping it anywhere — and
    // before parking, so a worker never sleeps on deliverable waiters.
    communicate(id, /*can_give=*/false);
    if (vertex* v = injected_.pop()) {
      me.tasks.push_back(v);
      continue;
    }
    if (!me.drains.empty()) {
      outset_drain_task* t = me.drains.front();
      me.drains.pop_front();
      run_drain(ms, t, /*migrated=*/false);
      continue;
    }
    if (outset_drain_task* t = injected_drains_.pop().task) {
      run_drain(ms, t, /*migrated=*/true);
      continue;
    }
    bool got = false;
    for (std::size_t attempt = 0; attempt < steal_attempts_before_park && !got;
         ++attempt) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.below(worker_count()));
      if (victim == id) continue;
      outset_drain_task* drain = nullptr;
      vertex* v = nullptr;
      {
        // Scope the steal span around the request round-trip only, so a
        // handed-off drain below lands in the drain bucket, not steal.
        obs::span_guard sg(obs::sp_steal);
        obs::emit(obs::ev_steal_attempt, static_cast<std::uint16_t>(victim));
        v = try_steal(id, victim, &drain);
      }
      if (v != nullptr) {
        me.tasks.push_back(v);
        bump(ms.steals);
        obs::emit(obs::ev_steal_success, static_cast<std::uint16_t>(victim));
        got = true;
      } else if (drain != nullptr) {
        // The victim had no vertex to spare and answered with broadcast
        // work instead: the receiver-initiated drain hand-off.
        run_drain(ms, drain, /*migrated=*/true);
        got = true;
      } else {
        bump(ms.failed_steal_sweeps);
        communicate(id, /*can_give=*/false);
      }
      if (stopping()) return;
    }
    if (!got) park(ms);
  }
}

}  // namespace spdag
