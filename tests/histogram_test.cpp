// Tests for the latency histogram and the timing decorator factory.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "dag/serial_executor.hpp"
#include "harness/workloads.hpp"
#include "incounter/timed_factory.hpp"
#include "sched/runtime.hpp"
#include "util/histogram.hpp"

namespace spdag {
namespace {

TEST(Histogram, EmptyIsZero) {
  latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(Histogram, SingleSampleLandsInRightBin) {
  latency_histogram h;
  h.record(100);  // (64, 128] -> upper bound 128
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(0.5), 128u);
  EXPECT_EQ(h.percentile_ns(1.0), 128u);
}

TEST(Histogram, PowersOfTwoAreInclusiveUpperBounds) {
  latency_histogram h;
  h.record(64);
  EXPECT_EQ(h.percentile_ns(1.0), 64u);
}

TEST(Histogram, PercentilesAreMonotone) {
  latency_histogram h;
  for (std::uint64_t v : {1u, 2u, 4u, 50u, 100u, 1000u, 100000u}) h.record(v);
  std::uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t p = h.percentile_ns(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(Histogram, TailSeparatesFromMode) {
  latency_histogram h;
  for (int i = 0; i < 990; ++i) h.record(50);
  for (int i = 0; i < 10; ++i) h.record(100000);
  EXPECT_EQ(h.percentile_ns(0.5), 64u);
  EXPECT_GE(h.percentile_ns(0.999), 65536u);
}

TEST(Histogram, MergeAddsCounts) {
  latency_histogram a, b;
  a.record(10);
  b.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  latency_histogram h;
  constexpr int kThreads = 8;
  constexpr int kSamples = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kSamples; ++i) h.record(static_cast<std::uint64_t>(i % 4096));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kSamples);
}

TEST(Histogram, HugeValuesClampToLastBin) {
  latency_histogram h;
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(1.0), ~0ULL);
}

TEST(TimedFactory, RecordsEveryCounterOperation) {
  latency_histogram arrives, departs;
  timed_factory factory(make_counter_factory("dyn:1"), &arrives, &departs);
  serial_executor exec;
  dag_engine engine(factory, exec);
  auto [root, final_v] = engine.make();
  root->body = [] {
    fork2([] { fork2([] {}, [] {}); }, [] {});
  };
  engine.add(final_v);
  engine.add(root);
  exec.run_all(engine);
  // 2 spawns = 2 arrives; every obligation resolves with a depart:
  // make's initial counter has surplus 1 resolved by a depart too.
  EXPECT_EQ(arrives.count(), 2u);
  EXPECT_EQ(departs.count(), 3u);
  EXPECT_GT(arrives.percentile_ns(1.0), 0u);
}

TEST(TimedFactory, PreservesProgramSemantics) {
  latency_histogram arrives, departs;
  timed_factory factory(make_counter_factory("dyn"), &arrives, &departs);
  auto sched = make_scheduler("ws", 2);
  dag_engine engine(factory, *sched);
  auto [root, final_v] = engine.make();
  std::atomic<int> leaves{0};
  auto* l = &leaves;
  root->body = [l] {
    struct rec {
      static void go(std::atomic<int>* l, int d) {
        if (d == 0) {
          l->fetch_add(1);
          return;
        }
        fork2([l, d] { go(l, d - 1); }, [l, d] { go(l, d - 1); });
      }
    };
    rec::go(l, 6);
  };
  sched->run(engine, root, final_v);
  EXPECT_EQ(leaves.load(), 64);
  EXPECT_EQ(arrives.count(), 63u);
  EXPECT_EQ(engine.live_vertices(), 0u);
}

}  // namespace
}  // namespace spdag
