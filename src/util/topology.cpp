#include "util/topology.hpp"

#include <thread>

namespace spdag {

std::size_t hardware_core_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace spdag
