#pragma once
// Chase-Lev work-stealing deque.
//
// The owner pushes and pops at the bottom (LIFO, cache-friendly for nested
// parallelism); thieves steal from the top (FIFO, steals the largest
// remaining subcomputation). Memory ordering follows Lê, Pop, Cohen &
// Zappa Nardelli, "Correct and Efficient Work-Stealing for Weak Memory
// Models" (PPoPP'13), the well-tested C11 formulation of Chase & Lev's
// algorithm.
//
// Growth: only the owner grows the buffer; retired buffers are kept until
// the deque is destroyed because a concurrent thief may still be reading
// the old array (the standard leak-until-quiescence reclamation for this
// structure — bounded by log(max size) buffers).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/cache_aligned.hpp"

namespace spdag {

namespace detail {
// ThreadSanitizer does not model std::atomic_thread_fence, so the proven
// fence-based orderings below look like races to it. Under TSan we upgrade
// the slot and bottom accesses to release/acquire (strictly stronger, so
// still correct) purely to let the tool verify the rest of the system.
#if defined(__SANITIZE_THREAD__)
inline constexpr std::memory_order mo_relaxed = std::memory_order_seq_cst;
#else
inline constexpr std::memory_order mo_relaxed = std::memory_order_relaxed;
#endif
inline constexpr std::memory_order mo_slot_store = mo_relaxed;
inline constexpr std::memory_order mo_slot_load = mo_relaxed;
inline constexpr std::memory_order mo_bottom_store = mo_relaxed;
}  // namespace detail

template <typename T>
class chase_lev_deque {
 public:
  explicit chase_lev_deque(std::size_t initial_log_capacity = 8)
      : buffer_(new ring(initial_log_capacity)) {
    retired_.emplace_back(buffer_.load(std::memory_order_relaxed));
  }

  chase_lev_deque(const chase_lev_deque&) = delete;
  chase_lev_deque& operator=(const chase_lev_deque&) = delete;

  // Owner only.
  void push_bottom(T* x) {
    const std::int64_t b = bottom_.value.load(detail::mo_relaxed);
    const std::int64_t t = top_.value.load(std::memory_order_acquire);
    ring* a = buffer_.load(std::memory_order_relaxed);
    if (b - t > a->capacity - 1) {
      a = grow(a, b, t);
    }
    a->put(b, x);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.value.store(b + 1, detail::mo_bottom_store);
  }

  // Owner only. Returns nullptr when empty (or when the last element was
  // lost to a concurrent thief).
  T* pop_bottom() {
    const std::int64_t b = bottom_.value.load(detail::mo_relaxed) - 1;
    ring* a = buffer_.load(std::memory_order_relaxed);
    bottom_.value.store(b, detail::mo_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.value.load(detail::mo_relaxed);
    T* x = nullptr;
    if (t <= b) {
      x = a->get(b);
      if (t == b) {
        // Last element: race with thieves through the top CAS.
        if (!top_.value.compare_exchange_strong(t, t + 1,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
          x = nullptr;
        }
        bottom_.value.store(b + 1, detail::mo_bottom_store);
      }
    } else {
      bottom_.value.store(b + 1, detail::mo_bottom_store);
    }
    return x;
  }

  // Any thread. Returns nullptr when the deque looks empty or the steal
  // lost a race (callers treat both as "try elsewhere").
  T* steal_top() {
    std::int64_t t = top_.value.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.value.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    ring* a = buffer_.load(std::memory_order_acquire);
    T* x = a->get(t);
    if (!top_.value.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
      return nullptr;
    }
    return x;
  }

  // Racy size estimate (scheduling heuristics / tests at quiescence).
  std::int64_t size_estimate() const noexcept {
    const std::int64_t b = bottom_.value.load(std::memory_order_acquire);
    const std::int64_t t = top_.value.load(std::memory_order_acquire);
    return b > t ? b - t : 0;
  }

  bool empty_estimate() const noexcept { return size_estimate() == 0; }

  std::size_t capacity() const noexcept {
    return static_cast<std::size_t>(
        buffer_.load(std::memory_order_acquire)->capacity);
  }

 private:
  struct ring {
    explicit ring(std::size_t log_cap)
        : capacity(std::int64_t{1} << log_cap),
          mask(capacity - 1),
          slots(new std::atomic<T*>[static_cast<std::size_t>(capacity)]) {}

    T* get(std::int64_t i) const noexcept {
      return slots[i & mask].load(detail::mo_slot_load);
    }
    void put(std::int64_t i, T* x) noexcept {
      slots[i & mask].store(x, detail::mo_slot_store);
    }

    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<T*>[]> slots;
  };

  // Owner only.
  ring* grow(ring* old, std::int64_t b, std::int64_t t) {
    auto bigger = std::make_unique<ring>(
        static_cast<std::size_t>(__builtin_ctzll(
            static_cast<unsigned long long>(old->capacity))) +
        1);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    ring* fresh = bigger.get();
    retired_.emplace_back(std::move(bigger));
    buffer_.store(fresh, std::memory_order_release);
    return fresh;
  }

  cache_aligned<std::atomic<std::int64_t>> top_{0};
  cache_aligned<std::atomic<std::int64_t>> bottom_{0};
  std::atomic<ring*> buffer_;
  std::vector<std::unique_ptr<ring>> retired_;  // owner-mutated only
};

}  // namespace spdag
