#pragma once
// A fanin that makes a steal certain rather than likely.
//
// Only the worker that takes the injected root starts with work; any other
// worker gets a vertex only by stealing it. So a second worker id among the
// executed leaves proves that work migrated. On a host that gives the pool
// little CPU, the root's worker can finish a plain fanin before any thief
// runs, and zero steals is then a correct schedule. Here each leaf holds
// back, yielding its CPU, until a second worker has run a leaf: for at most
// 100 µs per leaf, and not past 2 s in all. Between leaves the holder's
// deque stays full and (under `private`) it answers steal requests.

#include <algorithm>
#include <atomic>
#include <bitset>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "dag/parallel_for.hpp"
#include "sched/runtime.hpp"

namespace spdag::test {

// Runs the fanin of n leaves on rt; returns how many distinct workers ran a
// leaf.
inline std::size_t fanin_until_stolen(runtime& rt, std::size_t n) {
  using clock = std::chrono::steady_clock;
  std::atomic<std::uint64_t> seen{0};
  const clock::time_point deadline = clock::now() + std::chrono::seconds(2);
  auto two_seen = [&seen] {
    return std::bitset<64>(seen.load(std::memory_order_acquire)).count() >= 2;
  };
  rt.run([&] {
    finish_then(
        [&] {
          parallel_for(0, n, 1, [&](std::size_t) {
            const int id = scheduler_base::current_worker_id();
            seen.fetch_or(std::uint64_t{1} << id, std::memory_order_acq_rel);
            const clock::time_point until = std::min(
                deadline, clock::now() + std::chrono::microseconds(100));
            while (!two_seen() && clock::now() < until) {
              std::this_thread::yield();
            }
          });
        },
        [] {});
  });
  return std::bitset<64>(seen.load()).count();
}

}  // namespace spdag::test
