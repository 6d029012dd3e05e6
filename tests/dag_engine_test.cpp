// Structural tests for the sp-dag engine (paper Figure 3) under the
// deterministic serial executor: make/chain/spawn/signal semantics, execution
// order constraints, conservation laws, and object recycling.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "dag/engine.hpp"
#include "dag/parallel_for.hpp"
#include "dag/serial_executor.hpp"
#include "incounter/factory.hpp"

namespace spdag {
namespace {

class DagEngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Each fixture owns its pool registry so the cached-cell assertions below
  // see only this engine's traffic (the default registry is process-wide).
  DagEngineTest()
      : factory_(make_counter_factory(GetParam())),
        engine_(*factory_, exec_, {.pools = &pools_}) {}

  serial_executor exec_;
  slab_pool_registry pools_;
  std::unique_ptr<counter_factory> factory_;
  dag_engine engine_;
};

TEST_P(DagEngineTest, TrivialDagRunsRootThenFinal) {
  std::vector<std::string> order;
  auto [root, final_v] = engine_.make();
  root->body = [&order] { order.push_back("root"); };
  final_v->body = [&order] { order.push_back("final"); };
  engine_.add(root);
  engine_.add(final_v);  // not ready yet: must be a no-op
  const std::size_t executed = exec_.run_all(engine_);
  EXPECT_EQ(executed, 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "root");
  EXPECT_EQ(order[1], "final");
}

TEST_P(DagEngineTest, ChainRunsSeriallyInOrder) {
  std::vector<int> order;
  auto [root, final_v] = engine_.make();
  root->body = [&order] {
    order.push_back(0);
    finish_then([&order] { order.push_back(1); }, [&order] { order.push_back(2); });
  };
  final_v->body = [&order] { order.push_back(3); };
  engine_.add(root);
  exec_.run_all(engine_);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(DagEngineTest, SpawnRunsBothChildrenBeforeFinal) {
  std::vector<std::string> order;
  auto [root, final_v] = engine_.make();
  root->body = [&order] {
    fork2([&order] { order.push_back("left"); },
          [&order] { order.push_back("right"); });
  };
  final_v->body = [&order] { order.push_back("final"); };
  engine_.add(root);
  exec_.run_all(engine_);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), "final");
  EXPECT_NE(std::find(order.begin(), order.end(), "left"), order.end());
  EXPECT_NE(std::find(order.begin(), order.end(), "right"), order.end());
}

TEST_P(DagEngineTest, NestedForkTreeCompletes) {
  std::atomic<int> leaves{0};
  auto [root, final_v] = engine_.make();
  // 4 levels of nested fork2 => 16 leaves.
  struct recursion {
    static void go(std::atomic<int>* count, int depth) {
      if (depth == 0) {
        count->fetch_add(1);
        return;
      }
      fork2([count, depth] { go(count, depth - 1); },
            [count, depth] { go(count, depth - 1); });
    }
  };
  root->body = [&leaves] { recursion::go(&leaves, 4); };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);
  EXPECT_EQ(leaves.load(), 16);
}

TEST_P(DagEngineTest, FinishThenSequencesNestedParallelism) {
  std::vector<int> order;
  auto [root, final_v] = engine_.make();
  root->body = [&order] {
    finish_then(
        [&order] {
          fork2([&order] { order.push_back(1); }, [&order] { order.push_back(1); });
        },
        [&order] {
          // Runs only after BOTH forked children above completed.
          EXPECT_EQ(order.size(), 2u);
          order.push_back(2);
        });
  };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2}));
}

TEST_P(DagEngineTest, ConservationLaws) {
  auto [root, final_v] = engine_.make();
  std::atomic<int> sink{0};
  struct recursion {
    static void go(std::atomic<int>* s, int depth) {
      if (depth == 0) {
        s->fetch_add(1);
        return;
      }
      fork2([s, depth] { go(s, depth - 1); }, [s, depth] { go(s, depth - 1); });
    }
  };
  root->body = [&sink] { recursion::go(&sink, 6); };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);

  const auto& st = engine_.stats();
  EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load())
      << "every vertex must be recycled exactly once";
  EXPECT_EQ(engine_.live_vertices(), 0u);
  if (engine_.uses_tokens()) {
    EXPECT_EQ(st.pairs_created.load(), st.pairs_recycled.load())
        << "every dec pair must be fully claimed and recycled";
  }
  // Executions = created vertices (each runs exactly once).
  EXPECT_EQ(st.executions.load(), st.vertices_created.load());
  // spawns create 2 vertices, chains 2, make 2.
  EXPECT_EQ(st.vertices_created.load(),
            2 + 2 * st.chains.load() + 2 * st.spawns.load());
}

TEST_P(DagEngineTest, VertexPoolIsReusedAcrossRuns) {
  for (int run = 0; run < 3; ++run) {
    auto [root, final_v] = engine_.make();
    root->body = [] {
      fork2([] {}, [] {});
    };
    engine_.add(root);
    engine_.add(final_v);
    exec_.run_all(engine_);
  }
  // 3 runs x 4 vertices each, but the pool caps distinct cells at one
  // magazine refill batch — reuse, not growth, across runs.
  EXPECT_EQ(engine_.stats().vertices_created.load(), 12u);
  EXPECT_LE(engine_.pooled_vertices(), 16u);
  EXPECT_EQ(engine_.live_vertices(), 0u);
  const pool_stats vp = pools_.totals();
  EXPECT_GT(vp.recycles, 0u) << "later runs must reuse recycled cells";
}

TEST_P(DagEngineTest, CounterObjectsAreRecycledThroughFactory) {
  for (int run = 0; run < 5; ++run) {
    auto [root, final_v] = engine_.make();
    root->body = [] {
      fork2([] { fork2([] {}, [] {}); }, [] {});
    };
    engine_.add(root);
    engine_.add(final_v);
    exec_.run_all(engine_);
  }
  // Each run needs at most 8 live counters; pooling must prevent 5x growth.
  EXPECT_LE(factory_->created(), 8u);
}

TEST_P(DagEngineTest, OnlyFinishVerticesOwnCounters) {
  // A 1024-leaf parallel_for under a finish block, then a nested finish_then
  // chain. The FIFO executor keeps the loop's whole frontier live at once,
  // so a counter per vertex would construct about a thousand of them. Only
  // finish vertices (make()'s final and each chain's w) may own one.
  std::atomic<int> leaves{0};
  std::atomic<int> tail{0};
  auto [root, final_v] = engine_.make();
  root->body = [&leaves, &tail] {
    finish_then(
        [&leaves] {
          parallel_for(0, 1024, 1, [&leaves](std::size_t) { leaves++; });
        },
        [&tail] {
          finish_then([&tail] { finish_then([&tail] { tail++; },
                                            [&tail] { tail++; }); },
                      [&tail] { tail++; });
        });
  };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);
  EXPECT_EQ(leaves.load(), 1024);
  EXPECT_EQ(tail.load(), 3);

  const auto& st = engine_.stats();
  EXPECT_EQ(st.chains.load(), 3u);
  EXPECT_GT(st.vertices_created.load(), 2048u);
  const std::uint64_t finish_vertices = 1 + st.chains;
  EXPECT_LE(factory_->created(), finish_vertices);
  // Unbatched, every edge costs one increment and one decrement:
  // counter_ops_per_edge stays exactly 1.0.
  EXPECT_EQ(st.counter_incs + st.counter_decs, 2 * st.edges);
  EXPECT_EQ(engine_.live_vertices(), 0u);
}

TEST_P(DagEngineTest, StatsResetZeroesEveryTally) {
  auto [root, final_v] = engine_.make();
  root->body = [] { fork2([] {}, [] {}); };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);
  engine_stats& st = engine_.stats();
  ASSERT_GT(st.executions.load(), 0u);
  st.reset();
  for (const engine_stats::field* f :
       {&st.vertices_created, &st.vertices_recycled, &st.spawns, &st.chains,
        &st.signals, &st.pairs_created, &st.pairs_recycled, &st.executions,
        &st.drains_enqueued, &st.edges, &st.counter_incs,
        &st.counter_decs}) {
    EXPECT_EQ(f->load(), 0u);
  }
}

TEST_P(DagEngineTest, DeepChainDoesNotRecurse) {
  // 10k sequential finish blocks; the serial executor's queue (not the C++
  // stack) carries the work, so this must not overflow.
  std::atomic<int> steps{0};
  struct recursion {
    static void go(std::atomic<int>* s, int depth) {
      if (depth == 0) return;
      s->fetch_add(1);
      finish_then([] {}, [s, depth] { go(s, depth - 1); });
    }
  };
  auto [root, final_v] = engine_.make();
  root->body = [&steps] { recursion::go(&steps, 10000); };
  engine_.add(root);
  engine_.add(final_v);
  exec_.run_all(engine_);
  EXPECT_EQ(steps.load(), 10000);
}

INSTANTIATE_TEST_SUITE_P(AllCounters, DagEngineTest,
                         ::testing::Values("faa", "locked", "snzi:2", "dyn:1",
                                           "dyn:50"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == ':') ch = '_';
                           }
                           return name;
                         });

TEST(DagEngineTls, CurrentVertexIsNullOutsideExecution) {
  EXPECT_EQ(dag_engine::current_vertex(), nullptr);
  EXPECT_EQ(dag_engine::current_engine(), nullptr);
}

TEST(DagEngineTls, CurrentVertexIsSetDuringBody) {
  serial_executor exec;
  auto factory = make_counter_factory("dyn:1");
  dag_engine engine(*factory, exec);
  auto [root, final_v] = engine.make();
  vertex* seen = nullptr;
  vertex* root_ptr = root;
  root->body = [&seen] { seen = dag_engine::current_vertex(); };
  engine.add(root);
  engine.add(final_v);
  exec.run_all(engine);
  EXPECT_EQ(seen, root_ptr);
  EXPECT_EQ(dag_engine::current_vertex(), nullptr);
}

}  // namespace
}  // namespace spdag
