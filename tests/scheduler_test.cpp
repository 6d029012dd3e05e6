// Tests for the Chase-Lev deque and the work-stealing scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "harness/workloads.hpp"
#include "sched/chase_lev.hpp"
#include "sched/runtime.hpp"
#include "sched/scheduler.hpp"

namespace spdag {
namespace {

// --- Chase-Lev deque -------------------------------------------------------

struct item {
  explicit item(int v) : value(v) {}
  int value;
};

TEST(ChaseLev, LifoForOwner) {
  chase_lev_deque<item> d;
  item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom(), &c);
  EXPECT_EQ(d.pop_bottom(), &b);
  EXPECT_EQ(d.pop_bottom(), &a);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLev, FifoForThieves) {
  chase_lev_deque<item> d;
  item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.steal_top(), &a);
  EXPECT_EQ(d.steal_top(), &b);
  EXPECT_EQ(d.steal_top(), &c);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  chase_lev_deque<item> d(/*initial_log_capacity=*/2);  // 4 slots
  std::vector<std::unique_ptr<item>> items;
  for (int i = 0; i < 1000; ++i) {
    items.push_back(std::make_unique<item>(i));
    d.push_bottom(items.back().get());
  }
  EXPECT_GE(d.capacity(), 1000u);
  for (int i = 999; i >= 0; --i) {
    item* it = d.pop_bottom();
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(it->value, i);
  }
}

TEST(ChaseLev, EveryItemTakenExactlyOnceUnderTheft) {
  constexpr int kItems = 30000;
  constexpr int kThieves = 3;
  chase_lev_deque<item> d;
  std::vector<std::unique_ptr<item>> items;
  items.reserve(kItems);
  for (int i = 0; i < kItems; ++i) items.push_back(std::make_unique<item>(i));

  std::vector<std::vector<int>> stolen(kThieves);
  std::vector<int> popped;
  std::atomic<bool> owner_done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!owner_done.load(std::memory_order_acquire) || d.size_estimate() > 0) {
        if (item* it = d.steal_top()) stolen[static_cast<size_t>(t)].push_back(it->value);
      }
    });
  }
  // Owner interleaves pushes and pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(items[static_cast<size_t>(i)].get());
    if ((i & 3) == 0) {
      if (item* it = d.pop_bottom()) popped.push_back(it->value);
    }
  }
  for (;;) {
    item* it = d.pop_bottom();
    if (it == nullptr) break;
    popped.push_back(it->value);
  }
  owner_done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::vector<int> all(popped);
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems))
      << "items lost or duplicated under concurrent stealing";
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

// --- scheduler -------------------------------------------------------------

TEST(Scheduler, WorkerCountDefaultsToHardware) {
  scheduler s;
  EXPECT_GE(s.worker_count(), 1u);
}

TEST(Scheduler, RunsTrivialDag) {
  runtime rt(runtime_config{2, "dyn:1"});
  std::atomic<int> ran{0};
  rt.run([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Scheduler, RunIsRepeatable) {
  runtime rt(runtime_config{2, "dyn:1"});
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    rt.run([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 50);
}

class SchedulerWorkers : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerWorkers, ParallelFibIsCorrect) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  EXPECT_EQ(harness::fib(rt, 20), 6765u);
}

TEST_P(SchedulerWorkers, FaninCompletesAndConserves) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  harness::fanin(rt, 1 << 12);
  const auto& st = rt.engine().stats();
  EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load());
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(SchedulerWorkers, Indegree2Completes) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  harness::indegree2(rt, 1 << 12);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerWorkers,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Scheduler, StealsHappenWithMultipleWorkers) {
  runtime rt(runtime_config{4, "dyn"});
  rt.sched().reset_totals();
  harness::fanin(rt, 1 << 14);
  const scheduler_totals t = rt.sched().totals();
  EXPECT_GT(t.executions, 0u);
  // On a multi-worker run of a wide dag some work should migrate. (This can
  // be flaky only if one worker does everything; the fanin tree is wide
  // enough that at least one steal is essentially certain.)
  EXPECT_GT(t.steals, 0u);
}

TEST(Scheduler, ExternalEnqueueGoesThroughInjectionQueue) {
  // run() is called from this (non-worker) thread, so the root is injected;
  // the dag still completes.
  runtime rt(runtime_config{1, "faa"});
  std::atomic<bool> ran{false};
  rt.run([&ran] { ran.store(true); });
  EXPECT_TRUE(ran.load());
}

TEST(Scheduler, ManyConsecutiveRunsDoNotLeakVertices) {
  runtime rt(runtime_config{2, "dyn"});
  for (int i = 0; i < 20; ++i) {
    harness::fanin(rt, 1 << 8);
    EXPECT_EQ(rt.engine().live_vertices(), 0u) << "leak after run " << i;
  }
}

// --- engine tallies: per-slot shards read back as one live view -----------

class ShardedEngineStats : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedEngineStats, LiveViewConservesAcrossFourWorkers) {
  runtime_config cfg{4, "dyn"};
  cfg.sched = GetParam();
  runtime rt(cfg);
  // Bound once, before any run: every later read must see the runs' effect,
  // which four workers and this thread wrote into separate shards.
  const auto& st = rt.engine().stats();
  constexpr std::uint64_t n = 1 << 12;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t spawns0 = st.spawns;
    harness::fanin(rt, n);
    EXPECT_EQ(st.spawns - spawns0, n - 1) << "rep " << rep;
    EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load());
    EXPECT_EQ(st.vertices_recycled.load(), st.executions.load());
  }
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  // Unbatched fanin: counter_ops_per_edge is exactly 1.0.
  EXPECT_EQ(st.counter_incs + st.counter_decs, 2 * st.edges);
  // The workers' own single-writer tallies agree with the engine's.
  EXPECT_EQ(rt.sched().totals().executions, st.executions.load());

  rt.engine().stats().reset();
  EXPECT_EQ(st.vertices_created.load(), 0u);
  EXPECT_EQ(st.vertices_recycled.load(), 0u);
  EXPECT_EQ(st.executions.load(), 0u);
  EXPECT_EQ(st.spawns.load(), 0u);
  EXPECT_EQ(st.edges.load(), 0u);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  harness::fanin(rt, n);
  EXPECT_EQ(st.spawns.load(), n - 1);
  EXPECT_EQ(st.vertices_created.load(), st.executions.load());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ShardedEngineStats,
                         ::testing::Values("ws", "private"));

TEST(Scheduler, CurrentWorkerIdIsMinusOneOutside) {
  EXPECT_EQ(scheduler::current_worker_id(), -1);
}

}  // namespace
}  // namespace spdag
