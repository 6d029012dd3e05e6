#pragma once
// dag_engine: the sp-dag data structure (paper Figure 3).
//
// Implements make / chain / spawn / signal on top of a pluggable dependency
// counter. Scheduling is delegated through the `executor` interface: the
// engine pushes a vertex to the executor exactly once, at the moment its
// dependency counter reaches zero (readiness detection via the depart
// return value, paper section 5). Vertices and dec-pairs are drawn from the
// engine's pool registry (src/mem/), so the spawn path's bookkeeping never
// hits malloc in steady state.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dag/vertex.hpp"
#include "incounter/factory.hpp"
#include "mem/registry.hpp"
#include "util/cache_aligned.hpp"
#include "util/tally.hpp"

namespace spdag {

class outset_drain_task;  // src/outset/outset.hpp

// Whoever runs ready vertices (the work-stealing scheduler, or a trivial
// serial loop in tests).
class executor {
 public:
  virtual ~executor() = default;
  virtual void enqueue(vertex* v) = 0;

  // Accepts one subtree-drain work unit from a parallel out-set finalize
  // (see outset::finalize's drain_spawner overload). Both schedulers
  // override — `ws` with a shared stealable lane, `private` with per-worker
  // queues served through its steal-request protocol (receiver-initiated
  // hand-off). The default runs the task on the calling thread through a
  // flattening trampoline, so even inline execution keeps the stack bounded
  // when tasks spawn sub-tasks (engine.cpp); it remains the serial-executor
  // path and the schedulers' single-worker/saturation fallback.
  virtual void enqueue_drain(outset_drain_task* t);
};

// Engine tallies, sharded by mem::thread_slot(). Each slot's owner bumps
// its own cache-line-padded shard with a single-writer load+store
// (util/tally.hpp); threads past the slot cap share one overflow shard and
// fetch_add into it. A read sums every shard. One shared word per tally
// would cost every vertex a dozen locked RMWs on the same one or two cache
// lines. The integration tests use the tallies to prove conservation laws
// (created == recycled, one signal per leaf, ...).
//
// Each field reads like the std::atomic it replaces: .load([order]) or an
// implicit conversion to std::uint64_t, both summing the live shards. A
// reference to the stats taken before a run therefore reads the run's
// effect after it. reset() zeroes every shard; call it between runs.
class engine_stats {
 public:
  enum tally : int {
    t_vertices_created,
    t_vertices_recycled,
    t_spawns,
    t_chains,
    t_signals,
    t_pairs_created,
    t_pairs_recycled,
    t_executions,
    t_drains_enqueued,
    t_edges,
    t_counter_incs,
    t_counter_decs,
    tally_count
  };

  // Live read-only view of one tally.
  class field {
   public:
    std::uint64_t load(
        std::memory_order order = std::memory_order_seq_cst) const noexcept {
      return owner_->sum(id_, order);
    }
    operator std::uint64_t() const noexcept { return load(); }

   private:
    friend class engine_stats;
    field(const engine_stats* owner, tally id) noexcept
        : owner_(owner), id_(id) {}
    const engine_stats* owner_;
    tally id_;
  };

  // The calling thread's shard; the engine takes one per operation.
  class writer {
   public:
    void add(tally t, std::uint64_t d = 1) const noexcept {
      if (shared_) {
        c_[t].fetch_add(d, std::memory_order_relaxed);
      } else {
        bump(c_[t], d);
      }
    }

   private:
    friend class engine_stats;
    writer(std::atomic<std::uint64_t>* c, bool shared) noexcept
        : c_(c), shared_(shared) {}
    std::atomic<std::uint64_t>* c_;
    bool shared_;
  };

  engine_stats();
  engine_stats(const engine_stats&) = delete;
  engine_stats& operator=(const engine_stats&) = delete;

  field vertices_created{this, t_vertices_created};
  field vertices_recycled{this, t_vertices_recycled};
  field spawns{this, t_spawns};
  field chains{this, t_chains};
  field signals{this, t_signals};
  field pairs_created{this, t_pairs_created};
  field pairs_recycled{this, t_pairs_recycled};
  field executions{this, t_executions};
  field drains_enqueued{this, t_drains_enqueued};
  // Amortization ledger. `edges` counts dependency edges (surplus units ever
  // posted on finish counters: initial obligations, spawn arrives, and the
  // k-1 units of each batched spawn). `counter_incs` counts increment
  // OPERATIONS (one per arrive/add/initial-surplus acquire) and
  // `counter_decs` depart operations (always one per edge). Unbatched
  // execution therefore measures (incs + decs) / (2 * edges) == 1.0 exactly;
  // every spawn_batch(k) adds one inc op for k-1 edges, pushing the ratio
  // strictly below 1 — the `counter_ops_per_edge` metric the application
  // benches report and CI gates.
  field edges{this, t_edges};
  field counter_incs{this, t_counter_incs};
  field counter_decs{this, t_counter_decs};

  writer local() noexcept;
  void reset() noexcept;

 private:
  std::uint64_t sum(tally t, std::memory_order order) const noexcept;

  struct shard {
    std::atomic<std::uint64_t> c[tally_count] = {};
  };
  // One shard per thread slot, then the overflow shard.
  std::unique_ptr<padded<shard>[]> shards_;
};

class outset_factory;  // src/outset/factory.hpp

struct dag_engine_options {
  // Ablation A2: when true, the first sibling to claim a decrement handle
  // picks a random slot instead of the higher-in-the-tree one, voiding the
  // ordering invariant of Lemma 4.6. Counting stays correct, but a node can
  // then phase-change to zero while live handles still point into its
  // subtree — so this option MUST be combined with a non-reclaiming counter
  // ("dyn:<t>:noreclaim"); with reclamation it is a use-after-recycle.
  bool randomize_claim_order = false;

  // Factory futures created under this engine draw their out-sets (waiter
  // broadcast structures) from; borrowed, must outlive the engine. Null
  // means the process-wide default simple-out-set factory.
  outset_factory* outsets = nullptr;

  // Registry the engine's vertex/dec-pair pools (and the future states made
  // under it) come from; borrowed, must outlive the engine. Null means the
  // process-wide default slab registry.
  pool_registry* pools = nullptr;
};

class dag_engine {
 public:
  // The engine borrows the factory and executor; both must outlive it.
  dag_engine(counter_factory& factory, executor& exec,
             dag_engine_options options = {});
  // Requires quiescence (live_vertices() == 0, asserted): un-executed
  // vertices are pool cells whose body captures would otherwise leak.
  ~dag_engine();

  dag_engine(const dag_engine&) = delete;
  dag_engine& operator=(const dag_engine&) = delete;

  // --- the paper's operations ---

  // Creates the root vertex and its finish (final) vertex; returns
  // (root, final). The root is ready; final waits for the root's signal.
  std::pair<vertex*, vertex*> make();

  // Serial composition: nests a sequential computation under `u`.
  // Returns (v, w) where v runs first (fin = w) and w runs after v's
  // entire subtree completes. Must be the last dag operation u performs.
  std::pair<vertex*, vertex*> chain(vertex* u);

  // Parallel composition: creates two parallel vertices under u's finish,
  // incrementing the finish counter once (one of the children stands for
  // u's continuation). Must be the last dag operation u performs.
  std::pair<vertex*, vertex*> spawn(vertex* u);

  // Batched parallel composition: creates k vertices under u's finish with
  // ONE counter operation covering all of them (u's transferred obligation
  // plus a k-1-unit batched increment), fills out[0..k) WITHOUT bodies and
  // without scheduling them. The children share the batch's increment
  // handles (vertex::shared_inc) and one k-owner decrement group. Must be
  // the last dag operation u performs; the caller assigns bodies and add()s
  // every child. k == 1 degenerates to handing u's obligation to one child.
  void spawn_batch_vertices(vertex* u, std::uint32_t k, vertex** out);

  // Convenience wrapper: spawn_batch_vertices + bodies from gen(i) + add().
  // gen is invoked synchronously for i in [0, k); each returned closure is
  // moved into child i's body before ANY child is scheduled (a scheduled
  // sibling may run, signal, and finish while later bodies are still being
  // assigned — assignment must therefore never touch an added vertex).
  template <typename Gen>
  void spawn_batch(vertex* u, std::uint32_t k, Gen&& gen) {
    vertex* local[32];
    std::vector<vertex*> heap;
    vertex** vs = local;
    if (k > 32) {
      heap.resize(k);
      vs = heap.data();
    }
    spawn_batch_vertices(u, k, vs);
    for (std::uint32_t i = 0; i < k; ++i) vs[i]->body = gen(i);
    for (std::uint32_t i = 0; i < k; ++i) add(vs[i]);
  }

  // Signals completion of u: decrements u.fin's counter; when that reaches
  // zero, u.fin is handed to the executor. Called by execute() for vertices
  // that did not chain/spawn.
  void signal(vertex* u);

  // The generalized constructor (paper's new_vertex): fresh vertex with
  // `n` initial dependencies and the given handles. Unlike Figure 3, only a
  // vertex with n > 0 gets an in-counter. Nothing ever increments a vertex's
  // counter unless it is some vertex's fin, and the only fins are make()'s
  // final vertex and chain()'s w, both created with n == 1. Every spawn,
  // batch, future and chain child starts at n == 0 and stays there, so a
  // counter would cost it a bank pop and push for nothing.
  vertex* new_vertex(vertex* fin, token inc, dec_pair* dpair, std::uint32_t n,
                     bool is_left);

  // Hands v to the executor iff its counter is (already) zero or absent.
  // Mirrors the paper's Scheduler.add: vertices with pending dependencies
  // are enqueued later by the zeroing signal.
  void add(vertex* v);

  // Hands one out-set subtree-drain work unit to the executor so an idle
  // worker can run it (future_state::complete routes its parallel finalize
  // through here). The executor owns the task from this point.
  void enqueue_drain(outset_drain_task* t);

  // Quiescent-only maintenance: trims every pool in this engine's registry
  // (flush magazines + recycle list, release fully-free slabs upstream —
  // see object_pool::trim), returning slabs released. ONLY legal between
  // run()s: every scheduler's run() drains to quiescence and parks its
  // workers before returning, which is exactly the no-racing-readers window
  // in which unmapping free slabs cannot violate the stale-read stability
  // argument live slabs rely on. Asserts live_vertices() == 0 as a cheap
  // proxy for that contract. If the registry is shared (the process-wide
  // default), the same must hold for every other engine drawing from it.
  std::size_t trim_pools();

  // Service-facing checked trim: like trim_pools(), but a mistimed call is
  // a no-op instead of an assert — returns false (without touching the
  // pools) when the engine is not quiescent, so an idle timer that loses a
  // race with an arriving submission backs off harmlessly and retries
  // later. The caller must still prevent NEW work from entering between the
  // check and the trim (the dag_service holds its admission gate across
  // this call); the check turns a mistimed fire into a clean refusal, it
  // does not license concurrent allocation. On success `*slabs_released`
  // (if non-null) receives the slab count handed back upstream.
  bool try_trim_pools(std::size_t* slabs_released = nullptr);

  // Live-mode trim: legal while this engine (and anything sharing its
  // registry) is mid-run. Does NOT demand live_vertices() == 0 — it routes
  // through pool_registry::trim_live(), which retires fully-free slabs into
  // epoch limbo and frees them only after the 2-epoch delay proves no
  // pinned worker can still reach them. Magazines stay untouched, so this
  // is strictly weaker than trim_pools() but needs no quiescence window at
  // all. Returns slabs retired this call; `*slabs_reclaimed` (if non-null)
  // receives how many limbo slabs the accompanying reclaim sweep actually
  // freed.
  std::size_t trim_pools_live(std::size_t* slabs_reclaimed = nullptr);

  // Runs v's body with this-vertex context, signals if v is not dead, and
  // recycles v. Called by the executor's workers.
  void execute(vertex* v);

  // --- plumbing ---
  counter_factory& factory() noexcept { return factory_; }
  outset_factory& outsets() noexcept { return *outsets_; }
  pool_registry& pools() noexcept { return *pools_; }

  // The "future_state" pool for one state geometry, memoized so the
  // fork2_future hot path is two uncontended loads instead of the
  // registry's mutexed string lookup per future creation.
  object_pool& state_pool(std::size_t bytes, std::size_t align);
  executor& exec() noexcept { return exec_; }
  engine_stats& stats() noexcept { return stats_; }
  bool uses_tokens() const noexcept { return uses_tokens_; }

  // Free cells cached for reuse in the backing pools (tests). Registry-wide:
  // engines sharing one registry see each other's cached cells.
  std::size_t pooled_vertices() const noexcept {
    return vertex_pool_->stats().cached();
  }
  std::size_t pooled_pairs() const noexcept {
    return pair_pool_->stats().cached();
  }
  // Sums every `created` shard before any `recycled` shard. A vertex
  // recycles only after it was created, so while no vertex is being created
  // this never reads a false zero: a vertex live across the read is in the
  // first sum and not in the second. (Creations racing the read can only
  // push `recycled` past `created`, which reads as a huge nonzero value.)
  // The service's idle trim relies on that before it unmaps slabs.
  std::size_t live_vertices() const noexcept {
    const std::uint64_t created =
        stats_.vertices_created.load(std::memory_order_acquire);
    const std::uint64_t recycled =
        stats_.vertices_recycled.load(std::memory_order_relaxed);
    return created - recycled;
  }

  // The vertex currently executing on this thread (the paper's this_vertex).
  static vertex* current_vertex() noexcept;
  static dag_engine* current_engine() noexcept;

 private:
  // Each operation takes the calling thread's stats shard once and hands it
  // to the helpers it calls.
  using writer = engine_stats::writer;
  vertex* new_vertex(writer w, vertex* fin, token inc, dec_pair* dpair,
                     std::uint32_t n, bool is_left);
  void recycle(vertex* v, writer w);
  dec_pair* alloc_pair(writer w, token t0, token t1, std::uint32_t owners,
                       bool grouped = false);
  void release_pair_ref(dec_pair* p, writer w);
  token claim_dec(vertex* u, writer w);

  counter_factory& factory_;
  outset_factory* outsets_;
  pool_registry* pools_;
  executor& exec_;
  dag_engine_options options_;
  bool uses_tokens_;
  engine_stats stats_;

  object_pool* vertex_pool_;
  object_pool* pair_pool_;

  // Append-only memo of state_pool() lookups: readers scan lock-free (key
  // acquire-load pairs with the installer's release-store, which follows
  // the pool store); installs take memo_mu_ (cold, once per geometry).
  struct state_pool_memo {
    std::atomic<std::uint64_t> key{0};  // bytes<<16 | align; 0 = empty
    std::atomic<object_pool*> pool{nullptr};
  };
  static constexpr std::size_t state_pool_slots = 8;
  state_pool_memo state_pools_[state_pool_slots];
  std::mutex memo_mu_;
};

// --- nested-parallelism sugar (usable inside vertex bodies) ---

// Parallel composition of two closures under the current vertex: one spawn,
// both children scheduled. Must be the last dag action of the current body.
template <typename L, typename R>
void fork2(L&& left, R&& right) {
  dag_engine* eng = dag_engine::current_engine();
  vertex* u = dag_engine::current_vertex();
  auto [v, w] = eng->spawn(u);
  v->body = std::forward<L>(left);
  w->body = std::forward<R>(right);
  eng->add(v);
  eng->add(w);
}

// Serial composition under the current vertex: runs `first`'s entire nested
// computation (a finish block), then `then`. Must be the last dag action of
// the current body.
template <typename F, typename T>
void finish_then(F&& first, T&& then) {
  dag_engine* eng = dag_engine::current_engine();
  vertex* u = dag_engine::current_vertex();
  auto [v, w] = eng->chain(u);
  v->body = std::forward<F>(first);
  w->body = std::forward<T>(then);
  // Register w BEFORE publishing v: once v is enqueued, another worker can
  // run v's entire subtree, signal w, execute and recycle it — after which
  // touching w here would be a use-after-recycle.
  eng->add(w);
  eng->add(v);
}

}  // namespace spdag
