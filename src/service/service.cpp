#include "service/service.hpp"

#include <algorithm>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"

namespace spdag {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) noexcept {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

// Trace payloads are 32-bit; microseconds saturate at ~71 minutes.
std::uint32_t clamp_us(std::uint64_t ns) noexcept {
  const std::uint64_t us = ns / 1000;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(us, 0xffffffffULL));
}

}  // namespace

// --- ticket -----------------------------------------------------------------

bool ticket::wait() {
  if (s_ == nullptr) return false;
  std::unique_lock<std::mutex> lk(s_->mu);
  s_->cv.wait(lk, [this] { return s_->done; });
  return !s_->rejected;
}

bool ticket::ready() const {
  if (s_ == nullptr) return true;
  std::lock_guard<std::mutex> lk(s_->mu);
  return s_->done;
}

void ticket::release() noexcept {
  if (s_ == nullptr) return;
  // Client threads release through the service's trim gate: a pool
  // deallocation from outside the worker set is exactly the traffic the
  // idle trim cannot otherwise observe.
  s_->svc->release_ref(s_, /*via_gate=*/true);
  s_ = nullptr;
}

// --- dag_service ------------------------------------------------------------

dag_service::dag_service(service_config cfg)
    : cfg_(std::move(cfg)),
      rt_(cfg_.rt),
      ticket_pool_(&rt_.pools().get("service_ticket",
                                    sizeof(detail::ticket_state),
                                    alignof(detail::ticket_state))) {
  rt_.sched().begin_service(rt_.engine());
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

dag_service::~dag_service() { shutdown(drain_mode::drain); }

ticket dag_service::submit_body(vertex_body job) {
  obs::emit(obs::ev_submit);
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!admit()) {
    obs::emit(obs::ev_reject);
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    return ticket{};
  }
  detail::ticket_state* t;
  {
    // Shared gate: the pool allocation below may not race an idle trim.
    std::shared_lock<std::shared_mutex> gate(trim_gate_);
    t = pool_new<detail::ticket_state>(*ticket_pool_);
    t->svc = this;
    t->job = std::move(job);
    t->submit_tp = clock::now();
    if (!queue_.push(t)) {
      // Queue node arena at its cap: surface a clean admission reject
      // instead of the bad_alloc this used to throw. Unwind everything the
      // reservation took — the ticket cell (still private to us, under the
      // same gate that covered its allocation) and the inflight slot.
      pool_delete(*ticket_pool_, t);
      gate.unlock();
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      obs::gauge_add(obs::g_inflight, -1);
      {
        std::lock_guard<std::mutex> lk(admit_mu_);
      }
      admit_cv_.notify_one();
      obs::emit(obs::ev_reject);
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      n_queue_full_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ticket{};
    }
  }
  {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
  }
  dispatch_cv_.notify_one();
  return ticket{t};
}

bool dag_service::admit() {
  if (stop_.load(std::memory_order_acquire)) return false;  // fast path only
  const std::size_t cap = cfg_.max_inflight;
  for (;;) {
    std::size_t cur = inflight_.load(std::memory_order_acquire);
    if (cap != 0 && cur >= cap) {
      if (cfg_.on_full == admission_policy::reject) return false;
      n_blocked_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lk(admit_mu_);
      admit_cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_acquire) ||
               inflight_.load(std::memory_order_acquire) < cap;
      });
      if (stop_.load(std::memory_order_acquire)) return false;
      continue;  // re-run the CAS race for the freed slot
    }
    // Reserve the slot FIRST, then re-check stop_. The authoritative stop
    // check must come after the increment so the dispatcher's drain-exit
    // test (stop_ && inflight_ == 0 && queue empty) can never pass between
    // our stop check and our increment — any admission it could miss is in
    // inflight_ before it looks. That ordering argument is store-buffering
    // shaped (we write inflight_ then read stop_; the dispatcher reads
    // stop_ then inflight_), which acquire/release alone does not forbid —
    // hence seq_cst here, on shutdown()'s stop_ store, and on the
    // dispatcher's exit-check loads.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
      if (stop_.load(std::memory_order_seq_cst)) {
        // Shutdown won: roll the reservation back and reject. The transient
        // increment is harmless — it can only make the dispatcher poll once
        // more, never exit early.
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lk(admit_mu_);
        }
        admit_cv_.notify_all();
        return false;
      }
      std::size_t peak = peak_inflight_.load(std::memory_order_relaxed);
      while (cur + 1 > peak &&
             !peak_inflight_.compare_exchange_weak(
                 peak, cur + 1, std::memory_order_relaxed)) {
      }
      obs::gauge_add(obs::g_inflight, 1);
      return true;
    }
  }
}

void dag_service::dispatch(detail::ticket_state* t) {
  t->dispatch_tp = clock::now();
  const std::uint64_t queue_ns = elapsed_ns(t->submit_tp, t->dispatch_tp);
  obs::emit(obs::ev_admit, 0, clamp_us(queue_ns));
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_hist_.record(queue_ns);

  // The submission's dag: root runs the client job; the final vertex —
  // which the engine enqueues only after the root's entire nested
  // computation signals — carries the completion. No stop vertex: this is
  // what service mode replaces run()'s termination protocol with.
  auto [root, final_v] = rt_.engine().make();
  root->body = std::move(t->job);
  final_v->body = [this, t] { complete(t); };
  rt_.engine().add(root);
}

void dag_service::reject_queued(detail::ticket_state* t) {
  obs::emit(obs::ev_reject);
  n_rejected_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_inflight, -1);
  {
    std::lock_guard<std::mutex> lk(t->mu);
    t->done = true;
    t->rejected = true;
  }
  t->cv.notify_all();
  release_ref(t, /*via_gate=*/false);  // dispatcher-side: trim is ours alone
}

void dag_service::complete(detail::ticket_state* t) {
  // Runs on a worker thread, inside execute() of the submission's final
  // vertex — which is still live, so an idle trim cannot be concurrent with
  // anything this function does.
  const auto now = clock::now();
  const std::uint64_t sojourn_ns = elapsed_ns(t->submit_tp, now);
  const std::uint64_t exec_ns = elapsed_ns(t->dispatch_tp, now);
  sojourn_hist_.record(sojourn_ns);
  exec_hist_.record(exec_ns);
  obs::emit(obs::ev_submit_complete, 0, clamp_us(sojourn_ns));
  n_completed_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  obs::gauge_add(obs::g_inflight, -1);
  // Empty critical sections pair the notifies with their cvs' predicates
  // (which read atomics), closing the missed-wakeup window.
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
  }
  admit_cv_.notify_one();
  {
    std::lock_guard<std::mutex> lk(t->mu);
    t->done = true;
  }
  t->cv.notify_all();
  {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
  }
  dispatch_cv_.notify_one();
  release_ref(t, /*via_gate=*/false);
}

void dag_service::release_ref(detail::ticket_state* t, bool via_gate) noexcept {
  if (t->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (via_gate) {
    std::shared_lock<std::shared_mutex> gate(trim_gate_);
    pool_delete(*ticket_pool_, t);
  } else {
    pool_delete(*ticket_pool_, t);
  }
}

void dag_service::dispatcher_main() {
  // The dispatcher follows the workers' epoch protocol (src/mem/epoch.hpp):
  // pinned for its whole loop — it dereferences pooled memory through
  // engine::make() and ticket handling — refreshed at the loop top (no
  // stale pointer survives an iteration), unpinned across its cv waits so
  // an idle dispatcher never stalls reclamation.
  mem::epoch::pin_guard eg;
  for (;;) {
    mem::epoch::refresh();
    if (detail::ticket_state* t = queue_.pop()) {
      if (stop_.load(std::memory_order_acquire) &&
          reject_pending_.load(std::memory_order_acquire)) {
        reject_queued(t);
      } else {
        dispatch(t);
        maybe_busy_trim();
      }
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      // Drain protocol: exit only when nothing is admitted-but-incomplete.
      // A submitter that won admission just before stop_ may not have
      // pushed yet — inflight_ covers that window (admit() increments it
      // BEFORE its authoritative stop_ check), so keep polling. seq_cst on
      // both loads pairs with admit()'s seq_cst increment/check: see the
      // store-buffering note there.
      if (inflight_.load(std::memory_order_seq_cst) == 0 && queue_.empty()) {
        return;
      }
      mem::epoch::unpin();
      {
        std::unique_lock<std::mutex> lk(dispatch_mu_);
        dispatch_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
      mem::epoch::pin();
      continue;
    }
    std::unique_lock<std::mutex> lk(dispatch_mu_);
    // Anything pushed between the failed pop and this lock also issued a
    // notify we may have missed; re-check before sleeping.
    if (!queue_.empty() || stop_.load(std::memory_order_acquire)) continue;
    if (cfg_.idle_trim_after.count() > 0) {
      mem::epoch::unpin();
      const auto status = dispatch_cv_.wait_for(lk, cfg_.idle_trim_after);
      mem::epoch::pin();
      lk.unlock();
      if (status == std::cv_status::timeout &&
          !stop_.load(std::memory_order_acquire)) {
        try_idle_trim();
      }
    } else {
      // Timed rather than indefinite: bounds the cost of any wakeup the
      // empty-critical-section handshake still loses.
      mem::epoch::unpin();
      dispatch_cv_.wait_for(lk, std::chrono::milliseconds(50));
      mem::epoch::pin();
    }
  }
}

void dag_service::maybe_busy_trim() {
  // Dispatch-count cadence; dispatcher-only, so the counter needs no
  // atomicity. Unlike the idle trim there is NO gate and NO quiescence
  // check: trim_pools_live() is built for concurrent traffic — fully-free
  // slabs go to epoch limbo and are freed only after the 2-epoch delay.
  if (cfg_.busy_trim_every == 0) return;
  if (++dispatches_since_busy_trim_ < cfg_.busy_trim_every) return;
  dispatches_since_busy_trim_ = 0;
  std::size_t reclaimed = 0;
  const std::size_t retired = rt_.engine().trim_pools_live(&reclaimed);
  n_busy_trims_.fetch_add(1, std::memory_order_relaxed);
  n_slabs_retired_.fetch_add(retired, std::memory_order_relaxed);
  n_slabs_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
}

void dag_service::try_idle_trim() {
  // Exclusive gate first: no client can be mid-allocation/-release while we
  // hold it, and any client that arrives next blocks until we are done.
  std::unique_lock<std::shared_mutex> gate(trim_gate_, std::try_to_lock);
  if (!gate.owns_lock()) return;  // a submitter is mid-push: not idle
  if (!queue_.empty() || inflight_.load(std::memory_order_acquire) != 0) {
    return;
  }
  // Idempotence + self-healing: skip when nothing was freed since the last
  // trim (comparing against the post-trim snapshot, not zero — trims leave
  // a residue of free cells in pinned slabs), but re-arm the moment any
  // release — e.g. a client's ticket destruction landing AFTER a previous
  // trim — moves the retained count.
  if (rt_.pools().totals().retained() == trimmed_retained_) return;
  // inflight == 0 means every completion body ran, but the LAST worker may
  // still be in execute()'s epilogue (final vertex not yet recycled, busy
  // flag still up). That window is short and shrinking — no new work
  // can enter while we hold the gate — so wait it out boundedly and give up
  // harmlessly if an assumption breaks.
  dag_engine& eng = rt_.engine();
  scheduler_base& sch = rt_.sched();
  backoff b;
  for (int spin = 0; spin < 4096; ++spin) {
    if (eng.live_vertices() == 0 && sch.service_idle()) break;
    b.pause();
  }
  if (eng.live_vertices() != 0 || !sch.service_idle()) return;
  std::size_t released = 0;
  if (eng.try_trim_pools(&released)) {
    trimmed_retained_ = rt_.pools().totals().retained();
    n_idle_trims_.fetch_add(1, std::memory_order_relaxed);
    n_slabs_released_.fetch_add(released, std::memory_order_relaxed);
  }
}

void dag_service::shutdown(drain_mode mode) {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // Mode before flag: a reader that acquires stop_ sees the mode.
    // seq_cst store pairs with admit()'s reserve-then-check (see the
    // store-buffering note there).
    reject_pending_.store(mode == drain_mode::reject,
                          std::memory_order_release);
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
    }
    admit_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lk(dispatch_mu_);
    }
    dispatch_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lk(join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
  if (!ended_service_) {
    // Spins until the scheduler is empty of service work, then detaches the
    // engine; after this the workers are parked until destruction.
    rt_.sched().end_service();
    ended_service_ = true;
  }
}

service_stats dag_service::stats() const {
  service_stats s;
  s.submitted = n_submitted_.load(std::memory_order_relaxed);
  s.admitted = n_admitted_.load(std::memory_order_relaxed);
  s.rejected = n_rejected_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.blocked = n_blocked_.load(std::memory_order_relaxed);
  s.idle_trims = n_idle_trims_.load(std::memory_order_relaxed);
  s.slabs_released = n_slabs_released_.load(std::memory_order_relaxed);
  s.busy_trims = n_busy_trims_.load(std::memory_order_relaxed);
  s.slabs_retired = n_slabs_retired_.load(std::memory_order_relaxed);
  s.slabs_reclaimed = n_slabs_reclaimed_.load(std::memory_order_relaxed);
  s.queue_full_rejects =
      n_queue_full_rejects_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spdag
