#pragma once
// Single-writer tallies.
//
// A counter that only one thread ever writes needs no locked RMW: a relaxed
// load plus a relaxed store of the sum is exact, and keeping the word atomic
// lets other threads sum it (stats(), totals(), summary()) without a data
// race. The pool magazines, the trace tracks, the engine's per-slot stat
// shards and both schedulers' per-worker counters all use this.
//
// A reset from another thread (a plain store of 0) can be lost if it lands
// between the owner's load and store; every reset in the library runs
// between runs, when the owners are idle.

#include <atomic>
#include <cstdint>

namespace spdag {

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t d = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

}  // namespace spdag
