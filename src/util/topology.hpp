#pragma once
// Hardware topology: the core count that sizes a default worker pool.

#include <cstddef>

namespace spdag {

// Number of hardware threads visible to this process (>= 1):
// std::thread::hardware_concurrency(), or 1 when that is unknown. It counts
// the host's hardware threads, not the share a CPU-limited container may
// use, so a default-sized pool can oversubscribe there.
std::size_t hardware_core_count() noexcept;

}  // namespace spdag
