#include "dag/engine.hpp"

#include <cassert>
#include <vector>

#include "mem/epoch.hpp"
#include "mem/thread_slot.hpp"
#include "obs/trace.hpp"
#include "outset/factory.hpp"
#include "util/rng.hpp"

namespace spdag {

namespace {
thread_local vertex* tls_current_vertex = nullptr;
thread_local dag_engine* tls_current_engine = nullptr;
// Pending drains of the thread-local inline trampoline below; non-null only
// while a drain loop is running on this thread.
thread_local std::vector<outset_drain_task*>* tls_drain_queue = nullptr;
}  // namespace

vertex* dag_engine::current_vertex() noexcept { return tls_current_vertex; }
dag_engine* dag_engine::current_engine() noexcept { return tls_current_engine; }

void executor::enqueue_drain(outset_drain_task* t) {
  // Default: run on the calling thread, flattened — the serial-executor
  // path, and what both schedulers fall back to when they cannot offload
  // (one worker, saturated queue). A running task spawns its sub-tasks back
  // through this very function, so recursing here would rebuild the deep
  // call stack the iterative walks just removed; instead a nested call
  // appends to the loop already draining this thread.
  if (tls_drain_queue != nullptr) {
    tls_drain_queue->push_back(t);
    return;
  }
  // This path can run on threads no scheduler pins (the serial executor, a
  // caller's own thread on the saturation fallback); drains walk out-set
  // nodes whose recycled siblings a concurrent trim_live() could otherwise
  // unmap, so hold a pin for the duration of the loop.
  mem::epoch::pin_guard eg;
  std::vector<outset_drain_task*> queue;
  tls_drain_queue = &queue;
  t->run();
  while (!queue.empty()) {
    outset_drain_task* next = queue.back();
    queue.pop_back();
    next->run();
  }
  tls_drain_queue = nullptr;
}

engine_stats::engine_stats()
    : shards_(std::make_unique<padded<shard>[]>(mem::max_thread_slots + 1)) {}

engine_stats::writer engine_stats::local() noexcept {
  const int slot = mem::thread_slot();
  if (slot < 0) return {shards_[mem::max_thread_slots].value.c, true};
  return {shards_[slot].value.c, false};
}

std::uint64_t engine_stats::sum(tally t,
                                std::memory_order order) const noexcept {
  std::uint64_t total = 0;
  for (int i = 0; i <= mem::max_thread_slots; ++i) {
    total += shards_[i].value.c[t].load(order);
  }
  return total;
}

void engine_stats::reset() noexcept {
  for (int i = 0; i <= mem::max_thread_slots; ++i) {
    for (auto& c : shards_[i].value.c) c.store(0, std::memory_order_relaxed);
  }
}

void dag_engine::enqueue_drain(outset_drain_task* t) {
  stats_.local().add(engine_stats::t_drains_enqueued);
  exec_.enqueue_drain(t);
}

std::size_t dag_engine::trim_pools() {
  assert(live_vertices() == 0 &&
         "trim_pools requires quiescence: call only between run()s");
  obs::span_guard sg(obs::sp_trim);
  return pools_->trim();
}

bool dag_engine::try_trim_pools(std::size_t* slabs_released) {
  if (live_vertices() != 0) return false;
  obs::span_guard sg(obs::sp_trim);
  const std::size_t released = pools_->trim();
  if (slabs_released != nullptr) *slabs_released = released;
  return true;
}

std::size_t dag_engine::trim_pools_live(std::size_t* slabs_reclaimed) {
  obs::span_guard sg(obs::sp_trim);
  return pools_->trim_live(slabs_reclaimed);
}

dag_engine::dag_engine(counter_factory& factory, executor& exec,
                       dag_engine_options options)
    : factory_(factory),
      outsets_(options.outsets != nullptr ? options.outsets
                                          : &default_outset_factory()),
      pools_(options.pools != nullptr ? options.pools
                                      : &default_pool_registry()),
      exec_(exec),
      options_(options),
      vertex_pool_(&pools_->get("vertex", sizeof(vertex), alignof(vertex))),
      pair_pool_(&pools_->get("dec_pair", sizeof(dec_pair), alignof(dec_pair))) {
  // Counters from one factory are homogeneous; probe once.
  dep_counter* probe = factory_.acquire(0);
  uses_tokens_ = probe->uses_tokens();
  factory_.release(probe);
}

dag_engine::~dag_engine() {
  // Teardown contract: the engine must be quiescent. Vertices are pool
  // cells destroyed by recycle(); a vertex still live here would leak
  // whatever its body captured (the pool reclaims raw storage only). Every
  // scheduler's run() drains to quiescence before returning, so this only
  // trips on direct engine misuse (make()/spawn() without executing).
  assert(live_vertices() == 0 &&
         "dag_engine destroyed with live vertices; their bodies leak");
}

object_pool& dag_engine::state_pool(std::size_t bytes, std::size_t align) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(bytes) << 16) | static_cast<std::uint64_t>(align);
  for (auto& e : state_pools_) {
    if (e.key.load(std::memory_order_acquire) == key) {
      return *e.pool.load(std::memory_order_relaxed);
    }
  }
  object_pool& p = pools_->get("future_state", bytes, align);
  std::lock_guard<std::mutex> lock(memo_mu_);
  for (auto& e : state_pools_) {
    const std::uint64_t k = e.key.load(std::memory_order_relaxed);
    if (k == key) return p;  // a racer installed it first
    if (k == 0) {
      e.pool.store(&p, std::memory_order_relaxed);
      e.key.store(key, std::memory_order_release);
      return p;
    }
  }
  // Memo full (more than state_pool_slots distinct geometries): serve from
  // the registry each time — correct, just uncached.
  return p;
}

void dag_engine::recycle(vertex* v, writer w) {
  if (v->counter != nullptr) {
    factory_.release(v->counter);
    v->counter = nullptr;
  }
  w.add(engine_stats::t_vertices_recycled);
  pool_delete(*vertex_pool_, v);
}

dec_pair* dag_engine::alloc_pair(writer w, token t0, token t1,
                                 std::uint32_t owners, bool grouped) {
  dec_pair* p = pool_new<dec_pair>(*pair_pool_);
  p->reset(t0, t1, owners, grouped);
  w.add(engine_stats::t_pairs_created);
  return p;
}

void dag_engine::release_pair_ref(dec_pair* p, writer w) {
  if (p->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    w.add(engine_stats::t_pairs_recycled);
    pool_delete(*pair_pool_, p);
  }
}

token dag_engine::claim_dec(vertex* u, writer w) {
  obs::emit(obs::ev_claim_dec);
  dec_pair* p = u->dpair;
  assert(p != nullptr && "claim_dec on a vertex without a decrement pair");
  // Test-and-set: the first sibling to need a decrement handle takes t[0],
  // the handle pointing at least as high in the SNZI tree as t[1] (paper
  // section 3.3, Lemma 4.6's ordering invariant). Callers: spawn() claims
  // the parent's inherited handle into the new pair, and signal()/the
  // execute() epilogue claim at depart time — execute() deliberately claims
  // BEFORE recycling v (the handle lives in v->dpair) and departs after.
  // The ablation policy lets the first claimer pick a random slot instead —
  // never on a grouped (spawn_batch) pair, whose t[1] is a multi-unit batch
  // token: all owners-1 later claimers must land on it (see dec_pair).
  const std::int8_t want =
      (options_.randomize_claim_order && !p->grouped)
          ? static_cast<std::int8_t>(thread_rng()() & 1)
          : std::int8_t{0};
  std::int8_t first = -1;
  int idx;
  if (p->first_slot.compare_exchange_strong(first, want,
                                            std::memory_order_acq_rel)) {
    idx = want;
  } else {
    idx = 1 - first;  // the slot the first claimer left behind
  }
  const token t = p->t[idx];
  u->dpair = nullptr;
  release_pair_ref(p, w);
  return t;
}

vertex* dag_engine::new_vertex(vertex* fin, token inc, dec_pair* dpair,
                               std::uint32_t n, bool is_left) {
  return new_vertex(stats_.local(), fin, inc, dpair, n, is_left);
}

vertex* dag_engine::new_vertex(writer w, vertex* fin, token inc,
                               dec_pair* dpair, std::uint32_t n, bool is_left) {
  w.add(engine_stats::t_vertices_created);
  vertex* v = pool_new<vertex>(*vertex_pool_);
  if (n > 0) {
    // Only a future fin gets a counter (see the header). An initial surplus
    // is one increment operation covering n edges (the obligations the new
    // counter starts with) — see engine_stats::edges.
    v->counter = factory_.acquire(n);
    w.add(engine_stats::t_counter_incs);
    w.add(engine_stats::t_edges, n);
  }
  v->fin = fin;
  v->inc = inc;
  v->dpair = dpair;
  v->is_left = is_left;
  v->dead = false;
  v->shared_inc = false;
  return v;
}

std::pair<vertex*, vertex*> dag_engine::make() {
  // Final vertex: one pending dependency (the root's signal); no finish of
  // its own — executing it ends the computation.
  const writer w = stats_.local();
  vertex* final_v = new_vertex(w, nullptr, 0, nullptr, 1, /*is_left=*/false);
  const token h = final_v->counter->root_token();
  dec_pair* p = uses_tokens_ ? alloc_pair(w, h, h, 1) : nullptr;
  vertex* root = new_vertex(w, final_v, h, p, 0, /*is_left=*/true);
  return {root, final_v};
}

std::pair<vertex*, vertex*> dag_engine::chain(vertex* u) {
  const writer sw = stats_.local();
  sw.add(engine_stats::t_chains);
  assert(!u->dead && "chain on a dead vertex");
  // w inherits u's obligation toward u.fin and waits for v's subtree.
  vertex* w = new_vertex(sw, u->fin, u->inc, u->dpair, 1, u->is_left);
  w->shared_inc = u->shared_inc;  // same handle token, same sharing status
  u->dpair = nullptr;  // transferred
  const token h = w->counter->root_token();
  dec_pair* vp = uses_tokens_ ? alloc_pair(sw, h, h, 1) : nullptr;
  // v's handle is w's fresh counter's root — unique by construction.
  vertex* v = new_vertex(sw, w, h, vp, 0, /*is_left=*/true);
  u->dead = true;
  return {v, w};
}

std::pair<vertex*, vertex*> dag_engine::spawn(vertex* u) {
  const writer w = stats_.local();
  w.add(engine_stats::t_spawns);
  obs::emit(obs::ev_spawn);
  assert(!u->dead && "spawn on a dead vertex");
  vertex* fin = u->fin;
  assert(fin != nullptr && "spawn requires a finish vertex");
  // One increment for two new vertices: one of them stands for u's
  // continuation, whose obligation u already holds.
  const arrive_result r = fin->counter->arrive(u->inc, u->is_left);
  w.add(engine_stats::t_counter_incs);
  w.add(engine_stats::t_edges);
  dec_pair* np = nullptr;
  if (uses_tokens_) {
    // Claim AFTER the arrive completed (the paper's key invariant: the
    // arrive pins the counter nonzero, so the claimed handle cannot watch
    // its node phase-change out from under it), and order the pair
    // [inherited-higher, fresh-lower]. alloc_pair sets owners=2: both
    // children share the pair until each has claimed its slot.
    const token d1 = claim_dec(u, w);
    np = alloc_pair(w, d1, r.dec, /*owners=*/2);
  }
  vertex* left = new_vertex(w, fin, r.inc_left, np, 0, /*is_left=*/true);
  vertex* right = new_vertex(w, fin, r.inc_right, np, 0, /*is_left=*/false);
  // If u's handle was shared, another sharer growing the same hint may hold
  // the very same children — the new handles are shared too.
  left->shared_inc = u->shared_inc;
  right->shared_inc = u->shared_inc;
  u->dead = true;
  return {left, right};
}

void dag_engine::spawn_batch_vertices(vertex* u, std::uint32_t k,
                                      vertex** out) {
  assert(k >= 1 && "spawn_batch creates at least one vertex");
  assert(!u->dead && "spawn_batch on a dead vertex");
  vertex* fin = u->fin;
  assert(fin != nullptr && "spawn_batch requires a finish vertex");
  const writer w = stats_.local();
  w.add(engine_stats::t_spawns);
  obs::emit(obs::ev_spawn);
  if (k == 1) {
    // Degenerate batch: hand u's obligation to the single child, no new
    // increment at all (the counter never hears about this).
    out[0] = new_vertex(w, fin, u->inc, u->dpair, 0, u->is_left);
    out[0]->shared_inc = u->shared_inc;
    u->dpair = nullptr;
    u->dead = true;
    return;
  }
  // ONE batched increment covers the k-1 new edges (u's continuation
  // obligation accounts for the k-th); this is the amortization the batch
  // API exists for — counter_ops_per_edge drops below 1.
  const arrive_result r = fin->counter->add(u->inc, u->is_left, k - 1);
  w.add(engine_stats::t_counter_incs);
  w.add(engine_stats::t_edges, k - 1);
  dec_pair* np = nullptr;
  if (uses_tokens_) {
    // Same shape as spawn(): claim u's inherited (higher) handle only after
    // the batched arrive pinned the counter nonzero; r.dec carries the k-1
    // surplus units. The grouped pair makes the first claimer take t[0] and
    // every later claimer depart t[1] exactly once.
    const token d1 = claim_dec(u, w);
    np = alloc_pair(w, d1, r.dec, /*owners=*/k, /*grouped=*/true);
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    const bool left = (i % 2) == 0;
    vertex* v =
        new_vertex(w, fin, left ? r.inc_left : r.inc_right, np, 0, left);
    // All k children share the one arrive's two child handles.
    v->shared_inc = true;
    out[i] = v;
  }
  u->dead = true;
}

void dag_engine::signal(vertex* u) {
  const writer w = stats_.local();
  w.add(engine_stats::t_signals);
  vertex* fin = u->fin;
  assert(fin != nullptr && "signal requires a finish vertex");
  const token d = uses_tokens_ ? claim_dec(u, w) : 0;
  w.add(engine_stats::t_counter_decs);
  if (fin->counter->depart(d)) {
    exec_.enqueue(fin);
  }
}

void dag_engine::add(vertex* v) {
  if (v->counter == nullptr || v->counter->is_zero()) {
    exec_.enqueue(v);
  }
}

void dag_engine::execute(vertex* v) {
  const writer w = stats_.local();
  w.add(engine_stats::t_executions);
  vertex* prev_v = tls_current_vertex;
  dag_engine* prev_e = tls_current_engine;
  tls_current_vertex = v;
  tls_current_engine = this;
  if (v->body) v->body();
  tls_current_vertex = prev_v;
  tls_current_engine = prev_e;
  // Recycle BEFORE signaling: the signal below may transitively enable the
  // final vertex on another worker, and the run is only quiescent once every
  // vertex is recycled. Claim the decrement handle first (it lives in v).
  const bool should_signal = !v->dead && v->fin != nullptr;
  vertex* fin = v->fin;
  const token d = (should_signal && uses_tokens_) ? claim_dec(v, w) : 0;
  const token abandoned_inc = should_signal ? v->inc : 0;
  const bool shared = v->shared_inc;
  recycle(v, w);
  if (should_signal) {
    w.add(engine_stats::t_signals);
    w.add(engine_stats::t_counter_decs);
    // This vertex never spawned, so its increment handle is dead; let the
    // counter reclaim the handle's node (appendix B) before the depart that
    // may hand `fin` to another worker. Never for a SHARED handle: a sibling
    // of the batch may still use it, and two sharers retiring the same node
    // would double-count its pair's retire (see vertex::shared_inc).
    if (uses_tokens_ && !shared) fin->counter->abandon(abandoned_inc);
    if (fin->counter->depart(d)) {
      exec_.enqueue(fin);
    }
  }
}

}  // namespace spdag
