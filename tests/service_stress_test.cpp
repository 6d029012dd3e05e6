// Adversarial dag_service concurrency (stress lane; CI re-runs this under
// TSan and ASan): a multi-client completion storm over both schedulers with
// a small admission cap forcing constant blocking, and a thread-slot
// exhaustion run where more concurrently-live client threads than
// mem::max_thread_slots hammer submit() — over-cap threads must fall back
// to uncached allocation gracefully (src/mem/thread_slot.hpp), never fail,
// and their engine tallies land in the shared overflow shard.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "incounter/factory.hpp"
#include "mem/thread_slot.hpp"
#include "service/service.hpp"

namespace spdag {
namespace {

class ServiceStressTest : public ::testing::TestWithParam<std::string> {};

// Runs each ready vertex on the enqueuing thread. Holds no state, so any
// number of threads can drive one engine through it at once.
class inline_executor final : public executor {
 public:
  void enqueue(vertex* v) override { engine->execute(v); }
  dag_engine* engine = nullptr;
};

TEST_P(ServiceStressTest, CompletionStormUnderTightAdmission) {
  constexpr int kClients = 8;
  constexpr int kPerClient = 250;
  service_config cfg;
  cfg.rt.workers = 4;
  cfg.rt.sched = GetParam();
  cfg.max_inflight = 16;  // far below the offered load: admission must block
  cfg.on_full = admission_policy::block;
  cfg.idle_trim_after = std::chrono::milliseconds(1);
  dag_service svc(cfg);

  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> ok_waits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    // Open-loop clients: fire the whole batch without waiting, so the
    // offered load (8 × 250) piles up against the cap of 16 and admission
    // MUST block, then collect every ticket.
    clients.emplace_back([&] {
      std::vector<ticket> tickets;
      tickets.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        tickets.push_back(svc.submit([&leaves] {
          fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
                [&leaves] {
                  fork2([&leaves] {
                          leaves.fetch_add(1, std::memory_order_relaxed);
                        },
                        [&leaves] {
                          leaves.fetch_add(1, std::memory_order_relaxed);
                        });
                });
        }));
        ASSERT_TRUE(tickets.back().valid());
      }
      for (auto& t : tickets) {
        if (t.wait()) ok_waits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : clients) th.join();

  const std::uint64_t n = static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(ok_waits.load(), n);         // every submission completed...
  EXPECT_EQ(leaves.load(), 3 * n);       // ...and ran its body exactly once
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.admitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.blocked, 0u);              // the cap actually bit
  EXPECT_LE(s.peak_inflight, cfg.max_inflight);
  EXPECT_EQ(s.inflight, 0u);
}

TEST_P(ServiceStressTest, MoreClientThreadsThanThreadSlots) {
  // Every client thread claims a mem::thread_slot() on its first pooled
  // allocation and keeps it until thread exit. Hold all clients alive until
  // every one is done, so their live count genuinely exceeds the slot cap
  // and the overflow threads exercise the slotless (-1) fallback.
  const int kClients = mem::max_thread_slots + 44;
  constexpr int kPerClient = 3;
  service_config cfg;
  cfg.rt.workers = 4;
  cfg.rt.sched = GetParam();
  dag_service svc(cfg);
  // Over-cap clients also run small dags on this engine: their slot is -1,
  // so every tally they write goes to the shared overflow shard.
  auto factory = make_counter_factory("dyn");
  inline_executor inline_exec;
  dag_engine overflow_eng(*factory, inline_exec);
  inline_exec.engine = &overflow_eng;

  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> ok_waits{0};
  std::atomic<std::uint64_t> overflow_dags{0};
  std::atomic<int> finished{0};
  std::atomic<bool> all_done{false};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(kClients));
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto t = svc.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        ASSERT_TRUE(t.valid());
        if (t.wait()) ok_waits.fetch_add(1, std::memory_order_relaxed);
      }
      if (mem::thread_slot() < 0) {
        for (int i = 0; i < kPerClient; ++i) {
          auto [root, final_v] = overflow_eng.make();
          root->body = [] { fork2([] {}, [] {}); };
          overflow_eng.add(root);  // runs the whole dag, final included
        }
        overflow_dags.fetch_add(kPerClient, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_acq_rel);
      // Park (still alive, slot still claimed) until the whole cohort is
      // done — otherwise early finishers return their slots and the cap is
      // never actually exceeded.
      while (!all_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (finished.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  all_done.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();

  const std::uint64_t n =
      static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(ran.load(), n);
  EXPECT_EQ(ok_waits.load(), n);
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.inflight, 0u);

  svc.shutdown();
  const auto& es = svc.rt().engine().stats();
  EXPECT_EQ(es.vertices_created.load(), es.vertices_recycled.load());
  EXPECT_EQ(svc.rt().engine().live_vertices(), 0u);

  // Each overflow dag is make() + one fork2: four vertices, one spawn.
  const std::uint64_t dags = overflow_dags.load();
  EXPECT_GT(dags, 0u) << "no client thread ran past the slot cap";
  const auto& os = overflow_eng.stats();
  EXPECT_EQ(os.spawns.load(), dags);
  EXPECT_EQ(os.vertices_created.load(), 4 * dags);
  EXPECT_EQ(os.vertices_recycled.load(), 4 * dags);
  EXPECT_EQ(os.executions.load(), 4 * dags);
  EXPECT_EQ(os.counter_incs + os.counter_decs, 2 * os.edges);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ServiceStressTest,
                         ::testing::Values("ws", "private"));

}  // namespace
}  // namespace spdag
