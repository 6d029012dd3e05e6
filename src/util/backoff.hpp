#pragma once
// Exponential backoff for CAS retry loops and work-stealing idle loops.

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace spdag {

// One CPU relax hint (PAUSE on x86). Cheap; keeps a spinning hyperthread
// from starving its sibling and reduces the cost of the eventual branch
// misprediction when the awaited value changes.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Capped exponential backoff. Starts with a few pause instructions and
// escalates to yielding the OS slice, which matters when the machine is
// oversubscribed (more workers than hardware threads).
class backoff {
 public:
  explicit backoff(std::uint32_t spin_cap = 1024) noexcept
      : spin_cap_(spin_cap) {}

  void pause() noexcept {
    if (spins_ <= spin_cap_) {
      for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
      spins_ *= 2;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { spins_ = 1; }

 private:
  std::uint32_t spins_ = 1;
  std::uint32_t spin_cap_;
};

}  // namespace spdag
