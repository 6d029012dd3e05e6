#pragma once
// Work stealing with private deques and explicit steal requests.
//
// This is the receiver-initiated algorithm of Acar, Charguéraud & Rainey,
// "Scheduling Parallel Programs by Work Stealing with Private Deques"
// (PPoPP'13) — reference [2] of the reproduced paper and the scheduler its
// evaluation actually ran on. Unlike Chase-Lev, each worker's deque is a
// plain (unsynchronized) container; thieves never touch it. Instead:
//
//   * every worker owns a `request` cell thieves CAS their id into, and a
//     `transfer` cell where victims deliver;
//   * a busy worker polls its request cell between vertex executions and
//     answers with its OLDEST task (or a decline when it has nothing to
//     spare);
//   * an idle thief publishes a request to a random victim and spins on its
//     own transfer cell — declining any incoming request while it spins,
//     which is what makes thief-thief encounters deadlock-free.
//
// The trade: task execution pays zero synchronization on the deque, at the
// cost of steal latency bounded by the victim's polling interval.
//
// Out-set drain tasks (parallel finalize, see outset.hpp) ride the same
// request/response protocol, receiver-initiated like everything else here:
// each worker owns a PRIVATE drain queue, and a polled steal request that
// finds no vertex to spare is answered with the oldest queued drain instead
// of a decline. A busy worker therefore keeps the dag's critical path and
// sheds broadcast bookkeeping to whoever asked for work; a worker that goes
// idle with drains still queued runs them itself before thieving. Single-
// worker runs, external (non-worker) enqueuers with nobody to hand to, and
// a saturated queue all fall back to the executor's inline flattening
// trampoline, so the serial path is untouched.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sched/scheduler_base.hpp"
#include "util/cache_aligned.hpp"
#include "util/rng.hpp"

namespace spdag {

class private_deque_scheduler final : public scheduler_base {
 public:
  // Failed steal attempts before a worker parks.
  static constexpr std::size_t steal_attempts_before_park = 16;
  // Out-set drain tasks a worker queues privately before enqueue_drain
  // falls back to running the task inline (bounds the backlog a single
  // broadcast can park on one worker).
  static constexpr std::size_t drain_queue_cap = 256;

  // `workers` == 0 means hardware_core_count().
  explicit private_deque_scheduler(std::size_t workers = 0);
  ~private_deque_scheduler() override;

  void enqueue(vertex* v) override;

  // Receiver-initiated drain hand-off (see file comment): worker callers
  // queue the task privately for communicate() to answer steal requests
  // with; external callers inject it for an idle worker to adopt. Falls
  // back to the inline flattening trampoline with one worker or a full
  // queue. run() counts outstanding drains toward quiescence.
  void enqueue_drain(outset_drain_task* t) override;

 private:
  static constexpr int no_request = -1;
  // Transfer-cell sentinels (never valid vertex addresses). drain_given()
  // means "no vertex, but your drain_transfer cell holds a drain task".
  static vertex* waiting() {
    return reinterpret_cast<vertex*>(std::uintptr_t{1});
  }
  static vertex* declined() {
    return reinterpret_cast<vertex*>(std::uintptr_t{2});
  }
  static vertex* drain_given() {
    return reinterpret_cast<vertex*>(std::uintptr_t{3});
  }

  struct worker {
    std::deque<vertex*> tasks;              // private: owner-only
    std::deque<outset_drain_task*> drains;  // private: owner-only
    cache_aligned<std::atomic<int>> request{no_request};
    cache_aligned<std::atomic<vertex*>> transfer{nullptr};
    // Companion to the transfer cell: the victim parks the handed-off drain
    // here before publishing drain_given() in `transfer`.
    cache_aligned<std::atomic<outset_drain_task*>> drain_transfer{nullptr};
  };

  void work_loop(std::size_t id) override;
  // Answers a pending steal request; `can_give` = serve the oldest task.
  // With no vertex to spare it serves the oldest queued drain instead
  // (broadcast bookkeeping never outranks the dag's critical path, but it
  // beats declining an idle core), and only then declines.
  void communicate(std::size_t id, bool can_give);
  // On success returns a vertex. Returning null with *drain_out set means
  // the victim answered with a drain hand-off instead of a vertex.
  vertex* try_steal(std::size_t id, std::size_t victim,
                    outset_drain_task** drain_out);

  std::vector<std::unique_ptr<padded<worker>>> workers_;
};

}  // namespace spdag
